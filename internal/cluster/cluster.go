// Package cluster assembles the complete DirectLoad system: the builder
// data center feeds versioned index data through Bifrost deduplication
// and slicing, the shipper moves slices across the simulated national
// fabric, and each regional data center applies arriving records into its
// Mint store (QinDB nodes). On top sits the version lifecycle of paper
// §1.2/§3: at most four retained versions, gray release on a single data
// center, cross-region consistency audit, and rollback.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"time"

	"directload/internal/bifrost"
	"directload/internal/fleet"
	"directload/internal/metrics"
	"directload/internal/mint"
	"directload/internal/netsim"
)

// Orchestration errors.
var (
	ErrUnknownDC      = errors.New("cluster: unknown data center")
	ErrVersionMissing = errors.New("cluster: version not prepared")
	ErrNotGray        = errors.New("cluster: version not in gray release")
)

// Config assembles a DirectLoad deployment.
type Config struct {
	Topology bifrost.TopologyConfig
	Mint     mint.Config
	// SliceLimit bounds slice size in bytes (paper ships GB-scale slices
	// hourly; simulations use smaller ones).
	SliceLimit int64
	// RetainVersions caps stored versions per node (paper: 4).
	RetainVersions int
	// DedupEnabled switches Bifrost deduplication (off = the "without
	// DirectLoad" baseline of Fig. 10a).
	DedupEnabled bool
	// CorruptProb injects per-hop corruption (Fig. 10b failure model).
	CorruptProb float64
	// Seed drives failure injection.
	Seed int64
	// Metrics, when non-nil, receives the orchestrator's `cluster.*`
	// metrics and is propagated to the shipper, the deduper and (unless
	// already set) the Mint clusters. Nil keeps all paths allocation-free.
	Metrics *metrics.Registry
	// Events, when non-nil, receives version.publish and version.retire
	// lifecycle events.
	Events *metrics.EventLog
	// CycleSLO, when non-nil, is fed one event per successful publish:
	// good when the cycle's EffectiveTime stayed within CycleTarget.
	CycleSLO *metrics.SLO
	// CycleTarget is the publish-cycle deadline CycleSLO judges against
	// (default 1h — the paper's hourly full-index update cadence).
	CycleTarget time.Duration
}

// DefaultConfig returns a small, structurally faithful deployment.
func DefaultConfig() Config {
	top := bifrost.DefaultTopologyConfig()
	top.RelaysPerRegion = 6
	m := mint.DefaultConfig()
	m.Groups = 2
	m.NodesPerGroup = 3
	m.NodeCapacity = 256 << 20
	return Config{
		Topology:       top,
		Mint:           m,
		SliceLimit:     4 << 20,
		RetainVersions: 4,
		DedupEnabled:   true,
		Seed:           1,
	}
}

// VersionState tracks a version's lifecycle at one data center.
type VersionState int

// Version lifecycle states.
const (
	VersionPending VersionState = iota // slices still arriving
	VersionReady                       // fully loaded, not serving
	VersionActive                      // serving queries
)

// DataCenter is one regional deployment: a Mint cluster plus version
// bookkeeping.
type DataCenter struct {
	ID     netsim.NodeID
	Region string
	Store  *mint.Cluster
	// StoresSummary: the paper keeps summary indices in only three of
	// the six data centers.
	StoresSummary bool

	state    map[uint64]VersionState
	expected map[uint64]int // slices expected for the version
	arrived  map[uint64]int
	active   uint64
	applyErr error
}

// State returns the lifecycle state of a version at this DC.
func (dc *DataCenter) State(version uint64) VersionState { return dc.state[version] }

// ActiveVersion returns the serving version (0 = none).
func (dc *DataCenter) ActiveVersion() uint64 { return dc.active }

// DirectLoad is the whole system.
type DirectLoad struct {
	cfg     Config
	Top     *bifrost.Topology
	Shipper *bifrost.Shipper
	Deduper *bifrost.Deduper
	DCs     map[netsim.NodeID]*DataCenter

	versions []uint64 // published versions in order
	fleet    *fleet.Fleet
	reg      *metrics.Registry
	met      orchestratorMetrics
}

// AttachFleet routes every published version through the fleet's
// sharded quorum writes as well, and retention drops versions there.
// The fleet places each key on its rendezvous-chosen replica set, so
// the remote deployment scales past one node's capacity; a fleet with
// one group and Replicas = WriteQuorum = len(addrs) mirrors every entry
// to every node. Pass nil to detach; the caller keeps ownership of the
// fleet and closes it after shutdown.
func (d *DirectLoad) AttachFleet(f *fleet.Fleet) {
	d.fleet = f
}

// FleetGet serves a read from the attached fleet's hedged parallel-read
// path against the newest retained version — the networked counterpart
// of Get against a simulated DC.
func (d *DirectLoad) FleetGet(ctx context.Context, key []byte) ([]byte, error) {
	if d.fleet == nil {
		return nil, errors.New("cluster: no fleet attached")
	}
	if len(d.versions) == 0 {
		return nil, fmt.Errorf("%w: nothing published", ErrVersionMissing)
	}
	return d.fleet.Get(ctx, key, d.versions[len(d.versions)-1])
}

// orchestratorMetrics holds the cluster-level registry handles; all nil
// without a registry, making every record site a guarded no-op.
type orchestratorMetrics struct {
	published     *metrics.Counter
	slicesApplied *metrics.Counter
	lateDelivs    *metrics.Counter
	replLagUs     *metrics.Gauge
}

func newOrchestratorMetrics(reg *metrics.Registry) orchestratorMetrics {
	return orchestratorMetrics{
		published:     reg.Counter("cluster.versions.published"),
		slicesApplied: reg.Counter("cluster.slices.applied"),
		lateDelivs:    reg.Counter("cluster.deliveries.late"),
		replLagUs:     reg.Gauge("cluster.replication.lag_us"),
	}
}

// New builds the fabric and one Mint cluster per data center.
func New(cfg Config) (*DirectLoad, error) {
	if cfg.SliceLimit <= 0 {
		cfg.SliceLimit = 4 << 20
	}
	if cfg.RetainVersions <= 0 {
		cfg.RetainVersions = 4
	}
	if cfg.CycleTarget <= 0 {
		cfg.CycleTarget = time.Hour
	}
	if cfg.Mint.Metrics == nil {
		cfg.Mint.Metrics = cfg.Metrics
	}
	top, err := bifrost.BuildTopology(cfg.Topology)
	if err != nil {
		return nil, err
	}
	d := &DirectLoad{
		cfg:     cfg,
		Top:     top,
		Shipper: bifrost.NewShipper(top, cfg.Seed),
		Deduper: bifrost.NewDeduper(),
		DCs:     make(map[netsim.NodeID]*DataCenter),
		reg:     cfg.Metrics,
		met:     newOrchestratorMetrics(cfg.Metrics),
	}
	d.Shipper.CorruptProb = cfg.CorruptProb
	if cfg.Metrics != nil {
		d.Shipper.SetMetrics(cfg.Metrics)
		d.Deduper.SetMetrics(cfg.Metrics)
	}
	for _, region := range top.Regions {
		for i, id := range region.DCs {
			store, err := mint.New(cfg.Mint)
			if err != nil {
				return nil, err
			}
			d.DCs[id] = &DataCenter{
				ID:            id,
				Region:        region.Name,
				Store:         store,
				StoresSummary: i == 0, // first DC of each region
				state:         make(map[uint64]VersionState),
				expected:      make(map[uint64]int),
				arrived:       make(map[uint64]int),
			}
		}
	}
	return d, nil
}

// Close shuts every data center down and reports every failure.
func (d *DirectLoad) Close() error {
	var errs []error
	for _, dc := range d.DCs {
		if err := dc.Store.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Entry is one index record to publish.
type Entry struct {
	Key    []byte
	Value  []byte
	Stream bifrost.StreamType
}

// UpdateReport summarizes one version's publication — the raw material of
// Figs. 9 and 10.
type UpdateReport struct {
	Version    uint64
	UpdateTime time.Duration // first record generated -> all DCs ready
	Dedup      bifrost.DedupStats
	Keys       int
	// PayloadBytes is the pre-dedup volume; WireBytes what was actually
	// offered to the network (post-dedup).
	PayloadBytes int64
	WireBytes    int64
	MissRatio    float64
	StorageCost  time.Duration // total device time applying records
	// StorageByDC is per-data-center apply time; the slowest DC is the
	// storage-side critical path of the update.
	StorageByDC map[netsim.NodeID]time.Duration
	// ReadyAt records when (virtual time) each DC finished loading the
	// version; the max-min spread is the cross-DC replication lag.
	ReadyAt map[netsim.NodeID]time.Duration
}

// EffectiveTime is the update's critical path: network delivery overlaps
// storage apply, so the version is usable at max(network, slowest DC).
func (r UpdateReport) EffectiveTime() time.Duration {
	worst := r.UpdateTime
	for _, d := range r.StorageByDC {
		if d > worst {
			worst = d
		}
	}
	return worst
}

// dcsForStream returns the target DCs of a region for a stream.
func (d *DirectLoad) dcsForStream(region bifrost.Region, stream bifrost.StreamType) []netsim.NodeID {
	if stream == bifrost.StreamInverted {
		return region.DCs
	}
	var out []netsim.NodeID
	for _, id := range region.DCs {
		if d.DCs[id].StoresSummary {
			out = append(out, id)
		}
	}
	return out
}

// PublishVersion runs the full update pipeline for one version:
// deduplicate, slice, ship to every data center, apply on arrival, and
// wait (in virtual time) until every DC has loaded the version. The
// retention policy then drops versions beyond the configured limit.
func (d *DirectLoad) PublishVersion(version uint64, entries []Entry) (UpdateReport, error) {
	return d.PublishVersionContext(context.Background(), version, entries)
}

// PublishVersionContext is PublishVersion under a caller context. The
// whole publish cycle runs as one trace (rooted here when ctx carries
// no span): the dedup pass, the simulated fan-out (with one
// virtual-duration span per slice delivery), and the fleet publish —
// across the wire into each node's handler spans — all
// nest under one "cluster.publish" root, which is what /debug/trace
// renders as the version's timeline.
func (d *DirectLoad) PublishVersionContext(ctx context.Context, version uint64, entries []Entry) (rep UpdateReport, err error) {
	ctx, end := d.reg.StartSpanNote(ctx, "cluster.publish",
		fmt.Sprintf("v%d keys=%d", version, len(entries)))
	defer func() { end(err) }()
	start := d.Top.Net.Now()
	rep = UpdateReport{
		Version:     version,
		Keys:        len(entries),
		StorageByDC: make(map[netsim.NodeID]time.Duration),
		ReadyAt:     make(map[netsim.NodeID]time.Duration),
	}

	// Bifrost: dedup and pack per stream.
	dedupStart := time.Now()
	builders := map[bifrost.StreamType]*bifrost.SliceBuilder{
		bifrost.StreamSummary:  bifrost.NewSliceBuilder(version, bifrost.StreamSummary, d.cfg.SliceLimit),
		bifrost.StreamInverted: bifrost.NewSliceBuilder(version, bifrost.StreamInverted, d.cfg.SliceLimit),
	}
	for _, e := range entries {
		rep.PayloadBytes += int64(len(e.Key) + len(e.Value))
		rec := bifrost.Record{Key: e.Key, Version: version, Value: e.Value}
		if d.cfg.DedupEnabled && d.Deduper.Process(e.Key, e.Value) {
			rec.Dedup = true
			rec.Value = nil
		} else if !d.cfg.DedupEnabled {
			// Keep the signature cache warm so enabling dedup later
			// compares against the true previous version.
			d.Deduper.Process(e.Key, e.Value)
		}
		rep.WireBytes += int64(len(e.Key) + len(rec.Value))
		builders[e.Stream].Add(rec)
	}
	slices := map[bifrost.StreamType][]*bifrost.Slice{}
	for st, b := range builders {
		slices[st] = b.Finish()
	}
	// The dedup pass's note reports the wire savings, which only exist
	// once the loop above finished — so the span is assembled by hand.
	if sc, ok := metrics.SpanFromContext(ctx); ok {
		d.reg.Tracer().RecordSpan(metrics.SpanRecord{
			Name: "bifrost.dedup", Start: dedupStart, Dur: time.Since(dedupStart),
			TraceID: sc.TraceID, SpanID: metrics.NewSpanID(), ParentID: sc.SpanID,
			Note: fmt.Sprintf("elided=%dB", rep.PayloadBytes-rep.WireBytes),
		})
	}

	// Register expectations, then ship.
	for _, dc := range d.DCs {
		dc.state[version] = VersionPending
		dc.expected[version] = 0
		dc.arrived[version] = 0
	}
	streamOrder := []bifrost.StreamType{bifrost.StreamSummary, bifrost.StreamInverted}
	for _, region := range d.Top.Regions {
		for _, st := range streamOrder {
			for _, id := range d.dcsForStream(region, st) {
				d.DCs[id].expected[version] += len(slices[st])
			}
		}
	}
	// A DC that stores none of this version's streams is trivially ready
	// (e.g. a summary-only publish reaches three of the six DCs).
	for _, dc := range d.DCs {
		if dc.expected[version] == 0 {
			dc.state[version] = VersionReady
			rep.ReadyAt[dc.ID] = start
		}
	}
	// The ship phase spans enqueueing every slice plus the virtual-time
	// drain; while it is bound, the shipper records one virtual-duration
	// span per slice delivery under it.
	shipCtx, endShip := d.reg.ContinueSpan(ctx, "bifrost.ship")
	if sc, ok := metrics.SpanFromContext(shipCtx); ok {
		d.Shipper.BindTrace(sc, d.reg.Tracer())
		defer d.Shipper.BindTrace(metrics.SpanContext{}, nil)
	}
	for _, region := range d.Top.Regions {
		for _, st := range streamOrder {
			targets := d.dcsForStream(region, st)
			if len(targets) == 0 {
				continue
			}
			for _, slice := range slices[st] {
				slice := slice
				err := d.Shipper.ShipToRegionDCs(slice, region, targets, func(del bifrost.Delivery) {
					d.applySlice(del, version, &rep)
				})
				if err != nil {
					endShip(err)
					return rep, fmt.Errorf("cluster: shipping v%d: %w", version, err)
				}
			}
		}
	}
	// Drain the network (virtual time).
	d.Top.Net.Run(0)
	endShip(nil)
	for _, dc := range d.DCs {
		if dc.applyErr != nil {
			return rep, dc.applyErr
		}
		if dc.state[version] != VersionReady {
			return rep, fmt.Errorf("cluster: %s stuck at %d/%d slices of v%d",
				dc.ID, dc.arrived[version], dc.expected[version], version)
		}
	}
	// Remote publish path: quorum-write the version onto the fleet's
	// replica sets in batched frames before declaring it published.
	if d.fleet != nil {
		fe := make([]fleet.Entry, len(entries))
		for i, e := range entries {
			fe[i] = fleet.Entry{Key: e.Key, Value: e.Value}
		}
		if err := d.fleet.PublishVersion(ctx, version, fe); err != nil {
			return rep, fmt.Errorf("cluster: fleet publish v%d: %w", version, err)
		}
	}
	d.versions = append(d.versions, version)
	rep.UpdateTime = d.Top.Net.Now() - start
	rep.Dedup = d.Deduper.AdvanceVersion()
	rep.MissRatio = d.Shipper.MissRatio()
	d.met.published.Inc()
	eff := rep.EffectiveTime()
	d.cfg.Events.Emitf(metrics.EventVersionPublish, "", version,
		"keys=%d effective=%s", len(entries), eff)
	d.cfg.CycleSLO.Record(eff <= d.cfg.CycleTarget)
	if lag := rep.replicationLag(); lag >= 0 {
		d.met.replLagUs.Set(int64(lag / time.Microsecond))
	}

	// Retention: drop the oldest versions beyond the cap, cluster-wide.
	for len(d.versions) > d.cfg.RetainVersions {
		old := d.versions[0]
		d.versions = d.versions[1:]
		if d.fleet != nil {
			if err := d.fleet.DropVersion(ctx, old); err != nil {
				return rep, fmt.Errorf("cluster: fleet drop v%d: %w", old, err)
			}
		}
		for _, dc := range d.DCs {
			if _, _, err := dc.Store.DropVersion(old); err != nil {
				return rep, err
			}
			delete(dc.state, old)
			delete(dc.expected, old)
			delete(dc.arrived, old)
			if dc.active == old {
				dc.active = 0
			}
		}
		d.cfg.Events.Emit(metrics.EventVersionRetire, "", old, "retention")
	}
	return rep, nil
}

// replicationLag is the spread between the first and last DC to finish
// loading the version, or -1 when fewer than two DCs took part.
func (r UpdateReport) replicationLag() time.Duration {
	if len(r.ReadyAt) < 2 {
		return -1
	}
	first := true
	var min, max time.Duration
	for _, t := range r.ReadyAt {
		if first {
			min, max = t, t
			first = false
			continue
		}
		if t < min {
			min = t
		}
		if t > max {
			max = t
		}
	}
	return max - min
}

// applySlice loads one delivered slice into the receiving DC's store.
func (d *DirectLoad) applySlice(del bifrost.Delivery, version uint64, rep *UpdateReport) {
	dc, ok := d.DCs[del.DC]
	if !ok {
		return
	}
	for _, rec := range del.Slice.Records {
		cost, err := dc.Store.Put(rec.Key, rec.Version, rec.Value, rec.Dedup)
		rep.StorageCost += cost
		rep.StorageByDC[dc.ID] += cost
		if err != nil && dc.applyErr == nil {
			dc.applyErr = fmt.Errorf("cluster: applying at %s: %w", dc.ID, err)
		}
	}
	d.met.slicesApplied.Inc()
	if del.Late(d.Shipper.Deadline) {
		d.met.lateDelivs.Inc()
	}
	dc.arrived[version]++
	if dc.arrived[version] >= dc.expected[version] {
		dc.state[version] = VersionReady
		rep.ReadyAt[dc.ID] = del.Arrived
	}
}

// Versions returns the retained version numbers, oldest first.
func (d *DirectLoad) Versions() []uint64 {
	return append([]uint64(nil), d.versions...)
}

// --- gray release, activation, rollback -----------------------------------

// GrayRelease activates the version at exactly one data center (paper §3:
// "a gray release that allows version advance at only one out of the six
// data centers"). The other DCs keep serving their current version.
func (d *DirectLoad) GrayRelease(version uint64, dcID netsim.NodeID) error {
	dc, ok := d.DCs[dcID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownDC, dcID)
	}
	if dc.state[version] != VersionReady {
		return fmt.Errorf("%w: v%d at %s", ErrVersionMissing, version, dcID)
	}
	dc.state[version] = VersionActive
	if dc.active != 0 && dc.active != version {
		dc.state[dc.active] = VersionReady
	}
	dc.active = version
	return nil
}

// ActivateEverywhere promotes the version on every data center (the gray
// release validated fine).
func (d *DirectLoad) ActivateEverywhere(version uint64) error {
	for _, dc := range d.DCs {
		st := dc.state[version]
		if st != VersionReady && st != VersionActive {
			return fmt.Errorf("%w: v%d at %s", ErrVersionMissing, version, dc.ID)
		}
	}
	for _, dc := range d.DCs {
		if dc.active != 0 && dc.active != version {
			dc.state[dc.active] = VersionReady
		}
		dc.state[version] = VersionActive
		dc.active = version
	}
	return nil
}

// Rollback reverts a gray release: the gray DC returns to the previous
// version ("Rolling back to the last version is the last resort").
func (d *DirectLoad) Rollback(version uint64, to uint64) error {
	rolled := false
	for _, dc := range d.DCs {
		if dc.active == version {
			if dc.state[to] != VersionReady && dc.state[to] != VersionActive {
				return fmt.Errorf("%w: rollback target v%d at %s", ErrVersionMissing, to, dc.ID)
			}
			dc.state[version] = VersionReady
			dc.state[to] = VersionActive
			dc.active = to
			rolled = true
		}
	}
	if !rolled {
		return fmt.Errorf("%w: v%d", ErrNotGray, version)
	}
	return nil
}

// Get serves a read at one data center against its active version,
// falling back to older versions via the engine's traceback. Reads
// against a DC with no active version fail.
func (d *DirectLoad) Get(dcID netsim.NodeID, key []byte) ([]byte, time.Duration, error) {
	dc, ok := d.DCs[dcID]
	if !ok {
		return nil, 0, fmt.Errorf("%w: %s", ErrUnknownDC, dcID)
	}
	if dc.active == 0 {
		return nil, 0, fmt.Errorf("%w: no active version at %s", ErrVersionMissing, dcID)
	}
	return dc.Store.Get(key, dc.active)
}

// AuditConsistency samples keys and compares the answers of every pair
// of data centers, returning the fraction of (key, DC-pair) comparisons
// that disagree — the paper's cross-region search inconsistency metric
// (measured under 0.1% during gray release).
func (d *DirectLoad) AuditConsistency(keys [][]byte) float64 {
	var ids []netsim.NodeID
	for id := range d.DCs {
		ids = append(ids, id)
	}
	// Deterministic order.
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j-1] > ids[j]; j-- {
			ids[j-1], ids[j] = ids[j], ids[j-1]
		}
	}
	comparisons, disagreements := 0, 0
	for _, key := range keys {
		var answers []string
		for _, id := range ids {
			val, _, err := d.Get(id, key)
			if err != nil {
				continue
			}
			answers = append(answers, string(val))
		}
		for i := 1; i < len(answers); i++ {
			comparisons++
			if answers[i] != answers[0] {
				disagreements++
			}
		}
	}
	if comparisons == 0 {
		return 0
	}
	return float64(disagreements) / float64(comparisons)
}
