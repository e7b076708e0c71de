// Package directload is the public API of the DirectLoad reproduction —
// a web-scale index updating system (Qin et al., ICDE 2019) consisting
// of:
//
//   - QinDB, a key-value storage engine that replaces the LSM-tree with
//     an in-memory sorted memtable plus append-only files (AOFs) on
//     block-aligned flash, eliminating write amplification at both the
//     software and hardware level (open one with OpenStore);
//   - Bifrost, the cross-region delivery subsystem that removes ~70% of
//     update traffic by cross-version deduplication (NewDeduper) and
//     ships checksummed slices over a simulated national fabric;
//   - Mint, the regional distributed store placing replicas by key hash
//     onto node groups (NewMintCluster);
//   - the full orchestrated system with version lifecycle, gray release
//     and rollback (NewSystem).
//
// Everything runs over a built-in page/block-accurate SSD simulator, so
// the library is fully self-contained: no hardware, files or network
// access is required. See DESIGN.md for the mapping to the paper and
// EXPERIMENTS.md for the reproduced results.
package directload

import (
	"context"
	"time"

	"directload/internal/aof"
	"directload/internal/bifrost"
	"directload/internal/blockfs"
	"directload/internal/cluster"
	"directload/internal/core"
	"directload/internal/indexer"
	"directload/internal/lsm"
	"directload/internal/metrics"
	"directload/internal/mint"
	"directload/internal/ops"
	"directload/internal/server"
	"directload/internal/ssd"
	"directload/internal/workload"
)

// Re-exported building blocks. The aliases expose the full method sets
// of the internal implementations without letting callers construct
// inconsistent stacks by hand.
type (
	// Store is a QinDB engine instance (paper §2.3).
	Store = core.DB
	// StoreOptions configures a Store.
	StoreOptions = core.Options
	// StoreStats are QinDB engine counters.
	StoreStats = core.Stats

	// AOFConfig tunes the append-only file store and its lazy GC.
	AOFConfig = aof.Config

	// Deduper strips values unchanged since the previous version.
	Deduper = bifrost.Deduper
	// DedupStats summarizes deduplication effectiveness.
	DedupStats = bifrost.DedupStats
	// Slice is Bifrost's checksummed transmission unit.
	Slice = bifrost.Slice
	// SliceBuilder packs records into slices.
	SliceBuilder = bifrost.SliceBuilder

	// MintCluster is a regional replicated store.
	MintCluster = mint.Cluster
	// MintConfig sizes a MintCluster.
	MintConfig = mint.Config

	// System is the fully assembled DirectLoad deployment.
	System = cluster.DirectLoad
	// SystemConfig assembles a System.
	SystemConfig = cluster.Config
	// SystemEntry is one index record offered to PublishVersion.
	SystemEntry = cluster.Entry
	// UpdateReport summarizes one published version.
	UpdateReport = cluster.UpdateReport

	// SSDConfig describes simulated flash geometry.
	SSDConfig = ssd.Config
	// SSDDevice is the simulated flash device.
	SSDDevice = ssd.Device

	// LSMStore is the LevelDB-style baseline engine the paper compares
	// against; it shares QinDB's versioned-key API.
	LSMStore = lsm.DB
	// LSMOptions configures the baseline engine.
	LSMOptions = lsm.Options

	// Crawler simulates round-based web crawling (paper §1.1.1).
	Crawler = indexer.Crawler
	// CrawlConfig shapes the simulated web corpus.
	CrawlConfig = indexer.CrawlConfig
	// Document is one crawled page.
	Document = indexer.Document
	// SearchResult is one ranked query hit with its abstract.
	SearchResult = indexer.SearchResult

	// Generator produces deterministic versioned KV workloads with the
	// paper's key/value geometry and redundancy ratio.
	Generator = workload.Generator
	// GeneratorConfig shapes a Generator.
	GeneratorConfig = workload.KVConfig
	// WorkloadEntry is one generated key-value pair.
	WorkloadEntry = workload.Entry

	// Node is a TCP server exposing one QinDB engine — the network face
	// of a storage node.
	Node = server.Server
	// NodeClient is the matching client.
	NodeClient = server.Client
	// NodeDialOption configures DialNode (timeouts, pool size,
	// pipelining depth).
	NodeDialOption = server.DialOption
	// NodeFuture is one in-flight pipelined operation (Client.Pipeline).
	NodeFuture = server.Future
	// NodeBatchError reports which sub-ops of a batch flush failed.
	NodeBatchError = server.BatchError

	// MetricsRegistry collects the whole system's counters, gauges,
	// histograms and trace spans; pass one via StoreOptions.Metrics,
	// SystemConfig.Metrics, Node.SetMetrics, or WithDialMetrics to
	// instrument each layer.
	MetricsRegistry = metrics.Registry
	// SpanContext identifies one span of a distributed trace; clients
	// carry it across the wire in contexts built by the registry's
	// StartSpan.
	SpanContext = metrics.SpanContext
	// SlowLog is a bounded ring of operations that exceeded a latency
	// threshold (attach with Node.SetSlowLog).
	SlowLog = metrics.SlowLog
	// OpsConfig wires the operator HTTP endpoints (/metrics, /healthz,
	// /readyz, /debug/trace, /debug/slowlog) to their data sources.
	OpsConfig = ops.Config
	// OpsServer serves the operator endpoints with graceful shutdown.
	OpsServer = ops.Server
)

// Common sentinel errors, re-exported for errors.Is checks.
var (
	ErrNotFound = core.ErrNotFound
	ErrDeleted  = core.ErrDeleted
	ErrClosed   = core.ErrClosed
)

// Stream types for SystemEntry.
const (
	StreamSummary  = bifrost.StreamSummary
	StreamInverted = bifrost.StreamInverted
)

// DefaultStoreOptions mirrors the paper's QinDB configuration: 64 MB
// AOFs and a 25% occupancy GC threshold.
func DefaultStoreOptions() StoreOptions { return core.DefaultOptions() }

// Flash is a simulated SSD together with its filesystem metadata (file
// name table and extent maps — state that lives on disk in a real
// deployment). Keep the Flash and reopen stores on it to simulate
// crash/restart cycles.
type Flash struct {
	dev *ssd.Device
	fs  blockfs.FS
}

// Device exposes the underlying simulated SSD (for firmware counters and
// the virtual clock).
func (f *Flash) Device() *SSDDevice { return f.dev }

// NewFlash creates a simulated SSD of the given capacity (bytes) using
// the paper's geometry (4 KB pages, 256 KB erase blocks), written
// block-aligned through the native interface — QinDB's stack.
func NewFlash(capacity int64) (*Flash, error) {
	dev, err := ssd.NewDevice(ssd.DefaultConfig(capacity))
	if err != nil {
		return nil, err
	}
	return &Flash{dev: dev, fs: blockfs.NewNativeFS(dev)}, nil
}

// OpenStore creates a QinDB instance over a fresh simulated SSD of the
// given capacity (bytes).
func OpenStore(capacity int64, opts StoreOptions) (*Store, error) {
	f, err := NewFlash(capacity)
	if err != nil {
		return nil, err
	}
	return core.Open(f.fs, opts)
}

// OpenStoreOn opens a QinDB instance over existing flash, recovering any
// state already stored on it (the memtable and GC table are rebuilt from
// the AOFs, paper §2.3).
func OpenStoreOn(f *Flash, opts StoreOptions) (*Store, error) {
	return core.Open(f.fs, opts)
}

// OpenLSMStore creates the LevelDB-style baseline over a fresh simulated
// SSD fronted by a conventional page-mapped FTL — the stack the paper
// benchmarks QinDB against.
func OpenLSMStore(capacity int64, opts LSMOptions) (*LSMStore, error) {
	dev, err := ssd.NewDevice(ssd.DefaultConfig(capacity))
	if err != nil {
		return nil, err
	}
	cfg := dev.Config()
	// Reserve ~12% of flash for FTL over-provisioning.
	logical := (cfg.Blocks - cfg.Blocks/8 - 4) * cfg.PagesPerBlock
	ftl, err := ssd.NewFTL(dev, logical)
	if err != nil {
		return nil, err
	}
	return lsm.Open(blockfs.NewFTLFS(ftl), opts)
}

// DefaultLSMOptions returns LevelDB 1.9's default configuration.
func DefaultLSMOptions() LSMOptions { return lsm.DefaultOptions() }

// NewDeduper creates a Bifrost cross-version deduper.
func NewDeduper() *Deduper { return bifrost.NewDeduper() }

// NewMintCluster builds a regional replicated store.
func NewMintCluster(cfg MintConfig) (*MintCluster, error) { return mint.New(cfg) }

// DefaultMintConfig returns a small, structurally faithful cluster.
func DefaultMintConfig() MintConfig { return mint.DefaultConfig() }

// NewSystem assembles the complete DirectLoad deployment: builder,
// three-region fabric, six data centers, and per-DC Mint clusters.
func NewSystem(cfg SystemConfig) (*System, error) { return cluster.New(cfg) }

// DefaultSystemConfig returns a laptop-scale six-DC deployment.
func DefaultSystemConfig() SystemConfig { return cluster.DefaultConfig() }

// Version is a convenience for the time-based version numbers production
// deployments typically use.
func Version(t time.Time) uint64 { return uint64(t.Unix()) }

// NewCrawler seeds a simulated web corpus.
func NewCrawler(cfg CrawlConfig) (*Crawler, error) { return indexer.NewCrawler(cfg) }

// DefaultCrawlConfig returns a small, paper-shaped corpus.
func DefaultCrawlConfig() CrawlConfig { return indexer.DefaultCrawlConfig() }

// BuildForward generates forward-index entries <URL, terms>.
func BuildForward(docs []Document) []indexer.ForwardEntry { return indexer.BuildForward(docs) }

// BuildInverted inverts forward entries into <term, URLs>.
func BuildInverted(fwd []indexer.ForwardEntry) []indexer.InvertedEntry {
	return indexer.BuildInverted(fwd)
}

// BuildSummary generates summary-index entries <URL, abstract>.
func BuildSummary(docs []Document, abstractTerms int) []indexer.SummaryEntry {
	return indexer.BuildSummary(docs, abstractTerms)
}

// EncodeURLList serializes an inverted entry's URL chain for storage.
func EncodeURLList(urls []string) []byte { return indexer.EncodeURLList(urls) }

// DecodeURLList parses EncodeURLList output.
func DecodeURLList(v []byte) []string { return indexer.DecodeURLList(v) }

// Search resolves a multi-term query against inverted and summary lookup
// functions (the read path of the paper's Figure 1).
func Search(terms []string,
	inverted func(term string) ([]string, bool),
	summary func(url string) (string, bool),
	limit int) []SearchResult {
	return indexer.Search(terms, inverted, summary, limit)
}

// NewGenerator creates a deterministic workload generator.
func NewGenerator(cfg GeneratorConfig) (*Generator, error) { return workload.NewGenerator(cfg) }

// DefaultGeneratorConfig matches the paper's summary-index workload:
// 20-byte keys, 20 KB average values, 70% cross-version redundancy.
func DefaultGeneratorConfig() GeneratorConfig { return workload.DefaultKVConfig() }

// NewNode wraps a Store in a TCP server (see cmd/qindbd for a runnable
// daemon). The caller retains ownership of the store.
func NewNode(db *Store) *Node { return server.New(db) }

// DialNode connects to a serving Node. There is no handshake: the
// first call's request is the connection's first frame. Options tune
// deadlines, pooling and pipelining:
//
//	cl, err := directload.DialNode(addr,
//	        directload.WithDialTimeout(2*time.Second),
//	        directload.WithDialPoolSize(4))
func DialNode(addr string, opts ...NodeDialOption) (*NodeClient, error) {
	return server.Dial(addr, opts...)
}

// WithDialTimeout sets the default per-operation deadline for a dialed
// node client, applied whenever a call's context carries none.
func WithDialTimeout(d time.Duration) NodeDialOption { return server.WithTimeout(d) }

// WithDialPoolSize makes DialNode open n connections and spread
// requests across them.
func WithDialPoolSize(n int) NodeDialOption { return server.WithPoolSize(n) }

// WithDialMaxInFlight bounds pipelined requests outstanding per
// connection.
func WithDialMaxInFlight(n int) NodeDialOption { return server.WithMaxInFlight(n) }

// WithDialMetrics attaches a registry for the client-side pool gauges
// and trace spans.
func WithDialMetrics(reg *MetricsRegistry) NodeDialOption { return server.WithMetrics(reg) }

// NewMetricsRegistry creates an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// SpanFromContext returns the active trace span carried by ctx, if any
// (put one there with the registry's StartSpan).
func SpanFromContext(ctx context.Context) (SpanContext, bool) {
	return metrics.SpanFromContext(ctx)
}

// NewSlowLog creates a slow-op ring holding capacity entries (0 = 256)
// recording operations at or above threshold (0 = disabled).
func NewSlowLog(capacity int, threshold time.Duration) *SlowLog {
	return metrics.NewSlowLog(capacity, threshold)
}

// ListenOps binds the operator HTTP endpoints on addr (":0" for
// ephemeral); run the returned server's Serve on its own goroutine and
// stop it with Shutdown under a context deadline.
func ListenOps(addr string, cfg OpsConfig) (*OpsServer, error) { return ops.Listen(addr, cfg) }

// WaitFutures blocks until every pipelined operation completes and
// returns the first error among them.
func WaitFutures(futures ...*NodeFuture) error { return server.Wait(futures...) }
