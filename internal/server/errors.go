package server

import "directload/internal/core"

// StatusError is a non-OK server reply carried back to the caller. It
// is the single error representation for the whole wire path: the
// client surfaces one for every failing request (and Batcher for every
// failing sub-op), and errors.Is maps it onto the engine's sentinels,
// so errors.Is(err, core.ErrNotFound) behaves identically whether the
// engine is local or behind TCP — no string matching, no per-layer
// translation tables.
type StatusError struct {
	Code uint8  // StatusNotFound, StatusDeleted or StatusFailed
	Msg  string // server-side error text
}

// Error renders the status with its server-side message.
func (e *StatusError) Error() string {
	var prefix string
	switch e.Code {
	case StatusNotFound:
		prefix = "qindb client: not found"
	case StatusDeleted:
		prefix = "qindb client: deleted"
	default:
		prefix = "qindb client: server error"
	}
	if e.Msg == "" {
		return prefix
	}
	return prefix + ": " + e.Msg
}

// Is maps the wire status onto the engine sentinels, making errors.Is
// transparent across the network.
func (e *StatusError) Is(target error) bool {
	switch target {
	case core.ErrNotFound:
		return e.Code == StatusNotFound
	case core.ErrDeleted:
		return e.Code == StatusDeleted
	}
	return false
}

// statusErr converts a decoded reply into a *StatusError (nil for OK).
func statusErr(status uint8, payload []byte) error {
	if status == StatusOK {
		return nil
	}
	return &StatusError{Code: status, Msg: string(payload)}
}
