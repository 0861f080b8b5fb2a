// Package stream keeps what one client stream carries from frame to
// frame in a single table that the whole serving stack shares — the
// software form of the accelerator's SP-index scratchpad and Center
// Update Unit registers, one resident buffer set per stream (gSLICr
// keeps one per video stream the same way). An Entry holds four things:
//
//   - the warm centers, the previous frame's superpixel centers that
//     seed the next frame, with the (W, H, K) they were computed at;
//   - the delta base, the previous response's labels that slbl-delta
//     encodes against;
//   - the quality record behind /debug/streams and the per-stream
//     quality gauges;
//   - the metric label its cost and quality series carry.
//
// The table has one lock, one cap, one LRU and one label budget:
//
//   - At most Config.MaxStreams entries hold state. Beyond that,
//     storing state evicts the least-recently-used entry with no
//     admitted-but-unstarted job, never the one being stored; only when
//     every other entry has such a job does strict LRU apply. The table
//     is trimmed only when state is stored: trimming at admission or
//     when a job starts would evict a hot stream between two of its
//     queued frames. An entry that only counts admitted jobs holds no
//     state and leaves the table when its last job starts.
//   - Labels are minted once per key from a budget of Labels, split
//     evenly between tenants, and survive eviction.
//   - A frame whose (W, H, K) differs from the entry's finds no warm
//     centers and no delta base; the stale base goes back to the buffer
//     pool.
//
// A key is "stream", or "tenant/stream" with tenancy on ("tenant/" for
// a request without a stream). Neither half may contain '/', so a key
// names its tenant unambiguously.
package stream

import (
	"container/list"
	"strings"
	"sync"
	"time"

	"sslic/internal/imgio"
	"sslic/internal/slic"
	"sslic/internal/telemetry"
)

// Labels is the metric label budget: registry series are never evicted,
// so the per-stream series keys mint must stay bounded. Keys past their
// tenant's share are labelled "_other", keys without a stream "_anon"
// (both tenant-prefixed with tenancy on).
const Labels = 32

// RingLen is the depth of a quality record's churn and level rings.
const RingLen = 16

// Config sizes a Table.
type Config struct {
	// MaxStreams caps the entries that hold state; <= 0 selects 64.
	MaxStreams int
	// Recycle receives the delta bases the table drops, typically a
	// bufpool's PutLabelMap; nil leaves them to the garbage collector.
	// It runs under the table lock and must not call the table.
	Recycle func(*imgio.LabelMap)
	// Registry receives the entries gauge and the evictions counter;
	// nil selects a private one.
	Registry *telemetry.Registry
}

// Sample is one successfully segmented frame's quality observation.
// Everything in it is already computed by the hot path; the quality
// tracker folds it into series and the stream's record.
type Sample struct {
	// Stream is the table key.
	Stream  string
	TraceID string
	W, H, K int
	// Level is the degrade level the frame was served at.
	Level int
	Warm  bool
	// WireFormat is the response label framing (labels, slbl-rle,
	// slbl-delta, overlay, ...).
	WireFormat string
	// DeltaBase reports whether the frame found a delta base; only
	// meaningful for streams.
	DeltaBase bool
	// Churn is the changed-pixel fraction vs the previous frame; < 0
	// means unknown (no base to compare against).
	Churn         float64
	EmptyClusters int
	// Clusters is the effective superpixel count (the tiling's K).
	Clusters        int
	ClusterSizeCV   float64
	BoundaryDensity float64
	// Residual is the final pass's mean center movement;
	// ResidualDecay is final/first (1 = no convergence progress).
	Residual      float64
	ResidualDecay float64
	Converged     bool
	Passes        int
}

// Quality is an entry's quality record, kept by the quality tracker.
type Quality struct {
	FirstSeen, LastSeen    time.Time
	Frames, WarmFrames     uint64
	DeltaHits, DeltaMisses uint64
	// Collapsed reports whether the last frame tripped a floor check.
	Collapsed bool
	// Churn and Levels hold the last RingLen frames, Traces the last
	// four trace IDs; N and NTraces count every write, so a ring holds
	// writes [max(0, N-len), N).
	Churn      [RingLen]float64
	Levels     [RingLen]int32
	Traces     [4]string
	N, NTraces int
	Last       Sample
	// The stream's gauges, fetched once under its label so a
	// steady-state frame does no registry lookup.
	ChurnG, EmptyG, ResidualG, BoundaryG *telemetry.Gauge
}

// Entry is one stream's state, guarded by the table lock. Admit hands
// it out as the handle Release takes.
type Entry struct {
	key     string
	elem    *list.Element // nil while the entry holds no state
	pending int           // admitted-but-unstarted jobs
	w, h, k int           // the geometry of centers and base
	centers []slic.Center
	base    *imgio.LabelMap
	quality Quality
}

// Table is the per-stream state of a serving stack. Safe for
// concurrent use.
type Table struct {
	mu        sync.Mutex
	max       int
	slice     int // labels one tenant may mint
	recycle   func(*imgio.LabelMap)
	entries   map[string]*Entry // those holding state or admitted jobs
	lru       list.List         // the entries holding state, least recently used first
	minted    map[string]bool
	perTenant map[string]int // labels minted per key prefix ("tenant/" or "")

	size      *telemetry.Gauge
	evictions *telemetry.Counter
}

// New builds an empty table.
func New(cfg Config) *Table {
	if cfg.MaxStreams <= 0 {
		cfg.MaxStreams = 64
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	return &Table{
		max: cfg.MaxStreams, slice: Labels, recycle: cfg.Recycle,
		entries:   make(map[string]*Entry),
		minted:    make(map[string]bool),
		perTenant: make(map[string]int),
		size: cfg.Registry.Gauge("sslic_stream_entries",
			"Streams whose warm, delta and quality state is kept."),
		evictions: cfg.Registry.Counter("sslic_stream_evictions_total",
			"Stream entries evicted to respect MaxStreams."),
	}
}

// SetTenants splits the label budget evenly between n tenants, each
// minting at most Labels/n (at least 1). Call it before the first label
// is minted; without it one budget serves every key.
func (t *Table) SetTenants(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.slice = max(1, Labels/n)
}

// Admit records an admitted job on key's stream and returns the handle
// to pass to Release when the job leaves the queue.
func (t *Table) Admit(key string) *Entry {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entries[key]
	if e == nil {
		e = &Entry{key: key}
		t.entries[key] = e
	}
	e.pending++
	return e
}

// Release ends the admission Admit returned e for, when its job starts
// or is refused. A nil e is ignored.
func (t *Table) Release(e *Entry) {
	if e == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if e.pending--; e.pending == 0 && e.elem == nil {
		delete(t.entries, e.key) // admitted, never stored
	}
}

// Centers returns key's warm centers when they were computed at
// (w, h, k), else nil.
func (t *Table) Centers(key string, w, h, k int) []slic.Center {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e := t.entries[key]; e != nil && e.w == w && e.h == h && e.k == k {
		return e.centers
	}
	return nil
}

// StoreCenters keeps centers as key's warm centers at (w, h, k).
func (t *Table) StoreCenters(key string, centers []slic.Center, w, h, k int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.get(key)
	t.fit(e, w, h, k)
	e.centers = centers
	t.trim(e)
}

// TakeBase removes and returns key's delta base when it was stored at
// (w, h, k), else nil; the caller owns it until PutBase. While it is
// out, a concurrent request on the stream finds no base, so two
// requests never encode against (or mutate) one buffer.
func (t *Table) TakeBase(key string, w, h, k int) *imgio.LabelMap {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entries[key]
	if e == nil {
		return nil
	}
	t.fit(e, w, h, k)
	base := e.base
	e.base = nil
	return base
}

// PutBase makes lm key's delta base at (w, h, k). A base displaced by
// a concurrent request's, or one whose entry was evicted meanwhile, goes
// to Recycle.
func (t *Table) PutBase(key string, lm *imgio.LabelMap, w, h, k int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entries[key]
	if e == nil || e.elem == nil {
		t.drop(lm)
		return
	}
	t.lru.MoveToBack(e.elem)
	t.fit(e, w, h, k)
	t.drop(e.base)
	e.base = lm
}

// Label returns key's metric label, minting it on first use: the key
// itself while its tenant's share of the budget lasts, then the
// overflow label. A key keeps its label after eviction.
func (t *Table) Label(key string) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.mint(key)
}

// Record runs fn on key's quality record and label under the table
// lock, creating the entry when absent. fn must not call the table.
func (t *Table) Record(key string, fn func(q *Quality, label string)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.get(key)
	fn(&e.quality, t.mint(key))
	t.trim(e)
}

// Record is a copy of one entry's quality record.
type Record struct {
	Key string
	Quality
}

// Records copies every entry's quality record, least recently used
// first, so a report is built without holding the table lock.
func (t *Table) Records() []Record {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Record, 0, t.lru.Len())
	for el := t.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*Entry)
		out = append(out, Record{Key: e.key, Quality: e.quality})
	}
	return out
}

// get returns key's entry, creating it when absent, and marks it as
// holding state, most recently used. The caller trims.
func (t *Table) get(key string) *Entry {
	e := t.entries[key]
	if e == nil {
		e = &Entry{key: key}
		t.entries[key] = e
	}
	if e.elem != nil {
		t.lru.MoveToBack(e.elem)
		return e
	}
	e.elem = t.lru.PushBack(e)
	t.size.Set(float64(t.lru.Len()))
	return e
}

// trim evicts entries holding state beyond the cap, sparing keep: the
// least recently used one with no admitted-but-unstarted job, or the
// least recently used one when every other has such a job.
func (t *Table) trim(keep *Entry) {
	for t.lru.Len() > t.max {
		victim := t.lru.Front()
		if victim.Value == keep {
			victim = victim.Next()
		}
		for el := victim; el != nil; el = el.Next() {
			if e := el.Value.(*Entry); e != keep && e.pending == 0 {
				victim = el
				break
			}
		}
		t.evict(victim.Value.(*Entry))
	}
}

// evict drops e's state. An entry with admitted jobs stays in the table
// holding none, so its queued frames still count when it next stores.
func (t *Table) evict(e *Entry) {
	t.lru.Remove(e.elem)
	t.drop(e.base)
	*e = Entry{key: e.key, pending: e.pending}
	if e.pending == 0 {
		delete(t.entries, e.key)
	}
	t.evictions.Inc()
	t.size.Set(float64(t.lru.Len()))
}

// fit makes (w, h, k) e's geometry, dropping the centers and base of
// any other.
func (t *Table) fit(e *Entry, w, h, k int) {
	if e.w != w || e.h != h || e.k != k {
		t.drop(e.base)
		e.w, e.h, e.k, e.centers, e.base = w, h, k, nil, nil
	}
}

// drop hands a base the table lets go of to Recycle.
func (t *Table) drop(lm *imgio.LabelMap) {
	if lm != nil && t.recycle != nil {
		t.recycle(lm)
	}
}

// mint labels key, spending one label of its tenant's share the first
// time a key gets its own. The share is never refunded, so a key's
// label never changes.
func (t *Table) mint(key string) string {
	i := strings.IndexByte(key, '/')
	prefix, name := key[:i+1], key[i+1:]
	switch {
	case t.minted[key]:
		return key
	case name == "":
		return prefix + "_anon"
	case t.perTenant[prefix] >= t.slice:
		return prefix + "_other"
	}
	t.perTenant[prefix]++
	t.minted[key] = true
	return key
}
