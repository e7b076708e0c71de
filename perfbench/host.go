package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The benchmark runs on a virtual machine whose hypervisor takes CPU
// time from it at random, in bursts of a few seconds: the steal column
// of /proc/stat, which moved between 1 % and 24 % of a second from one
// second to the next on the machine the benchmark was sized on. A GET
// or a slice write in a stolen second takes longer for reasons outside
// the program. hostClock samples that column so that a windowed metric
// can be taken over the quieter windows of a run.

// stealTick is how often hostClock reads /proc/stat; the kernel counts
// CPU time in 10 ms ticks.
const stealTick = 50 * time.Millisecond

// calmSteal is the stolen share at or below which a window always
// counts as quiet, so that a calm run keeps every window instead of
// halving them on differences of a tick or two.
const calmSteal = 0.02

// hostClock keeps a series of (time, stolen, total) CPU-time samples.
// With no samples, as where /proc/stat cannot be read, every window
// counts as quiet.
type hostClock struct {
	mu    sync.Mutex
	at    []time.Time
	steal []int64 // cumulative stolen CPU ticks
	total []int64 // cumulative CPU ticks of every kind

	stop, done chan struct{}
}

// host is the process's one sampler, running for the whole run.
var host = &hostClock{}

// start samples every stealTick until close.
func (h *hostClock) start() {
	h.stop, h.done = make(chan struct{}), make(chan struct{})
	h.sample()
	go func() {
		defer close(h.done)
		t := time.NewTicker(stealTick)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
}

// close stops the sampler and waits for it; it keeps the samples.
func (h *hostClock) close() {
	if h.stop != nil {
		close(h.stop)
		<-h.done
		h.stop = nil
	}
}

func (h *hostClock) sample() {
	steal, total, ok := readCPUStat()
	if !ok {
		return
	}
	h.add(time.Now(), steal, total)
}

func (h *hostClock) add(at time.Time, steal, total int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.at = append(h.at, at)
	h.steal = append(h.steal, steal)
	h.total = append(h.total, total)
}

// readCPUStat reads the machine's cumulative stolen and total CPU ticks
// from the first line of /proc/stat.
func readCPUStat() (steal, total int64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	if err != nil {
		return 0, 0, false
	}
	fields := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, x := range fields[1:] {
		n, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total, true
}

// share is the part of the machine's CPU time stolen between the
// samples that bracket [t0, t1], or 0 when no two samples do.
func (h *hostClock) share(t0, t1 time.Time) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.Search(len(h.at), func(k int) bool { return h.at[k].After(t0) }) - 1
	j := sort.Search(len(h.at), func(k int) bool { return !h.at[k].Before(t1) })
	i, j = max(i, 0), min(j, len(h.at)-1)
	if j <= i || h.total[j] == h.total[i] {
		return 0
	}
	return float64(h.steal[j]-h.steal[i]) / float64(h.total[j]-h.total[i])
}

// quiet marks the intervals whose stolen share is at most calmSteal or
// at most that of the quietest third of them, and at least three: every
// window of a run on a calm host, the quietest third of a run on a busy
// one. Which windows count is decided by the host alone, never by what
// the program did in them.
func (h *hostClock) quiet(spans [][2]time.Time) []bool {
	shares := make([]float64, len(spans))
	for i, sp := range spans {
		shares[i] = h.share(sp[0], sp[1])
	}
	limit := calmSteal
	if len(shares) > 0 {
		sorted := append([]float64(nil), shares...)
		sort.Float64s(sorted)
		limit = max(limit, sorted[max((len(sorted)-1)/3, min(len(sorted), 3)-1)])
	}
	out := make([]bool, len(spans))
	for i, x := range shares {
		out[i] = x <= limit
	}
	return out
}

// pick returns the xs whose keep is set.
func pick(xs []float64, keep []bool) []float64 {
	var out []float64
	for i, x := range xs {
		if keep[i] {
			out = append(out, x)
		}
	}
	return out
}
