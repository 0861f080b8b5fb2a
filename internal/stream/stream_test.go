package stream

import (
	"math/rand"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"sslic/internal/imgio"
	"sslic/internal/slic"
)

// TestTableProperties drives a small table through a seeded random
// sequence of every operation by two tenants and checks the table's
// rules after each step.
func TestTableProperties(t *testing.T) {
	const maxStreams, steps = 3, 4000
	var dropped []*imgio.LabelMap
	// 16 tenants share the budget, so each of the two active ones may
	// mint 2 of its 4 stream labels.
	tb := New(Config{MaxStreams: maxStreams,
		Recycle: func(lm *imgio.LabelMap) { dropped = append(dropped, lm) }})
	tb.SetTenants(16)
	rng := rand.New(rand.NewSource(7))

	var keys []string
	for _, tenant := range []string{"a/", "b/"} {
		keys = append(keys, tenant) // a request without a stream
		for _, s := range []string{"s0", "s1", "s2", "s3"} {
			keys = append(keys, tenant+s)
		}
	}
	geoms := [][3]int{{16, 16, 4}, {16, 16, 8}, {8, 32, 4}}
	centers := make([]slic.Center, 4)

	var admitted []*Entry              // outstanding admissions
	held := map[*imgio.LabelMap]bool{} // bases taken out by "requests"
	heldBy := map[string][]*imgio.LabelMap{}
	recycled := map[*imgio.LabelMap]bool{}
	created := map[*imgio.LabelMap]bool{}
	labels := map[string]string{}
	checkLabel := func(key, l string) {
		if old, ok := labels[key]; ok && old != l {
			t.Fatalf("key %q changed label %q -> %q", key, old, l)
		}
		labels[key] = l
	}

	for step := 0; step < steps; step++ {
		key := keys[rng.Intn(len(keys))]
		g := geoms[rng.Intn(len(geoms))]
		var before []*Entry // the entries holding state
		for el := tb.lru.Front(); el != nil; el = el.Next() {
			before = append(before, el.Value.(*Entry))
		}
		op := rng.Intn(8)
		switch {
		case op <= 1 && len(admitted) < 6: // at most 6 queued jobs
			admitted = append(admitted, tb.Admit(key))
		case op <= 2:
			if len(admitted) > 0 {
				i := rng.Intn(len(admitted))
				tb.Release(admitted[i])
				admitted = append(admitted[:i], admitted[i+1:]...)
			}
		case op == 3:
			tb.StoreCenters(key, centers, g[0], g[1], g[2])
		case op == 4:
			if lm := tb.TakeBase(key, g[0], g[1], g[2]); lm != nil {
				if !created[lm] || held[lm] || recycled[lm] {
					t.Fatalf("step %d: TakeBase returned a base it does not own", step)
				}
				held[lm] = true
				heldBy[key] = append(heldBy[key], lm)
			}
		case op == 5:
			var lm *imgio.LabelMap
			if hs := heldBy[key]; len(hs) > 0 {
				lm, heldBy[key] = hs[len(hs)-1], hs[:len(hs)-1]
				delete(held, lm)
			} else {
				lm = &imgio.LabelMap{W: 16, H: 16, Labels: make([]int32, 256)}
				created[lm] = true
			}
			tb.PutBase(key, lm, g[0], g[1], g[2])
		case op == 6:
			tb.Record(key, func(q *Quality, l string) {
				q.Frames++
				checkLabel(key, l)
			})
		case op == 7:
			checkLabel(key, tb.Label(key))
		}

		// The cap: at most MaxStreams entries hold state, and at most
		// MaxStreams entries exist beyond those with an
		// admitted-but-unstarted job.
		if n := tb.lru.Len(); n > maxStreams || float64(n) != tb.size.Value() {
			t.Fatalf("step %d: %d entries hold state (gauge %g), cap %d", step, n, tb.size.Value(), maxStreams)
		}
		busy := 0
		for k, e := range tb.entries {
			if e.key != k {
				t.Fatalf("step %d: entry %q filed under %q", step, e.key, k)
			}
			if e.pending > 0 {
				busy++
			} else if e.elem == nil {
				t.Fatalf("step %d: entry %q holds neither state nor a queued job", step, k)
			}
		}
		if len(tb.entries) > maxStreams+busy {
			t.Fatalf("step %d: %d entries, cap %d + %d busy", step, len(tb.entries), maxStreams, busy)
		}
		// A queued job's entry stays in the table, evicted or not, so
		// its stream's queued frames count until they start.
		for _, e := range admitted {
			if tb.entries[e.key] != e {
				t.Fatalf("step %d: entry %q with a queued job left the table", step, e.key)
			}
		}
		// Storing state never evicts the stream being stored, and
		// evicts an entry with a queued job only when no other idle
		// one is left.
		if e := tb.entries[key]; (op == 3 || op == 6) && (e == nil || e.elem == nil) {
			t.Fatalf("step %d: storing %q evicted it", step, key)
		}
		evictedBusy, idleLeft := false, false
		for _, e := range before {
			if e.elem == nil && e.pending > 0 {
				evictedBusy = true
			}
		}
		for el := tb.lru.Front(); el != nil; el = el.Next() {
			if e := el.Value.(*Entry); e.key != key && e.pending == 0 {
				idleLeft = true
			}
		}
		if evictedBusy && idleLeft {
			t.Fatalf("step %d: evicted an entry with a queued job while an idle one was kept", step)
		}
		// Tenants never share an entry or a label, and none mints past
		// its slice.
		minted := map[string]int{}
		for k, l := range labels {
			tenant := k[:strings.IndexByte(k, '/')+1]
			if !strings.HasPrefix(l, tenant) {
				t.Fatalf("step %d: key %q of tenant %q labelled %q", step, k, tenant, l)
			}
			if l == k {
				minted[tenant]++
			}
		}
		for tenant, n := range minted {
			if n > tb.slice {
				t.Fatalf("step %d: tenant %q minted %d labels, slice %d", step, tenant, n, tb.slice)
			}
		}
		// Every base is in exactly one place: held by a request,
		// resident in an entry, or handed back to the buffer pool once.
		resident := map[*imgio.LabelMap]bool{}
		for _, e := range tb.entries {
			if e.base != nil {
				if resident[e.base] || held[e.base] || recycled[e.base] {
					t.Fatalf("step %d: base resident twice or also elsewhere", step)
				}
				resident[e.base] = true
			}
		}
		for _, lm := range dropped {
			if !created[lm] || recycled[lm] || held[lm] || resident[lm] {
				t.Fatalf("step %d: base handed back twice or while in use", step)
			}
			recycled[lm] = true
		}
		dropped = dropped[:0]
		for lm := range created {
			if !held[lm] && !resident[lm] && !recycled[lm] {
				t.Fatalf("step %d: a base was lost", step)
			}
		}
	}
	if len(recycled) == 0 || len(labels) < len(keys) {
		t.Fatalf("the walk exercised too little: %d recycled bases, %d labelled keys", len(recycled), len(labels))
	}
}

// TestKnownKeySteadyStateAllocs: every operation on a key the table
// already holds allocates nothing.
func TestKnownKeySteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by the race detector")
	}
	tb := New(Config{MaxStreams: 2})
	centers := make([]slic.Center, 4)
	base := &imgio.LabelMap{W: 16, H: 16, Labels: make([]int32, 256)}
	const key = "cam0"
	run := func() {
		tb.Release(tb.Admit(key))
		if tb.Centers(key, 16, 16, 4) == nil {
			tb.StoreCenters(key, centers, 16, 16, 4)
		}
		lm := tb.TakeBase(key, 16, 16, 4)
		if lm == nil {
			lm = base
		}
		tb.PutBase(key, lm, 16, 16, 4)
		tb.Record(key, func(q *Quality, label string) { q.Frames++ })
		_ = tb.Label(key)
	}
	run()
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("operations on a known key allocate %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkTableRequest prices the table's share of one served frame —
// the eight operations the pool and the handler make on the stream's
// entry — with every goroutine on its own stream, so -cpu N measures
// contention on the one lock.
func BenchmarkTableRequest(b *testing.B) {
	tb := New(Config{})
	centers := make([]slic.Center, 4)
	var next atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		key := "cam" + strconv.FormatInt(next.Add(1), 10)
		base := &imgio.LabelMap{W: 16, H: 16, Labels: make([]int32, 256)}
		for pb.Next() {
			tb.Release(tb.Admit(key))
			_ = tb.Centers(key, 16, 16, 4)
			tb.StoreCenters(key, centers, 16, 16, 4)
			_ = tb.Label(key)
			tb.Record(key, func(q *Quality, label string) { q.Frames++ })
			if lm := tb.TakeBase(key, 16, 16, 4); lm != nil {
				base = lm
			}
			tb.PutBase(key, base, 16, 16, 4)
		}
	})
}
