package telemetry

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
)

// TestRegistryConcurrentScrape hammers one registry from many writer
// goroutines — counters, gauges, histograms, and late registrations —
// while readers scrape /metrics-style expositions the whole time. Run
// under -race in CI, this is the proof that metric writes are safe from
// any goroutine while a scrape walks the registry.
func TestRegistryConcurrentScrape(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("race_frames_total", "")
	g := reg.Gauge("race_queue_depth", "")
	h := reg.Histogram("race_latency_seconds", "", []float64{0.001, 0.01, 0.1})
	reg.GaugeFunc("race_derived", "", func() float64 { return c.Value() / 2 })

	const (
		writers    = 8
		scrapers   = 4
		iterations = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				c.Inc()
				g.Set(float64(i % 16))
				g.SetMax(float64(i % 32))
				h.Observe(float64(i%100) / 1000)
				// Late registration of both fresh and existing series,
				// racing the scrapers' family walk.
				reg.Counter("race_late_total", "", Label{"writer", fmt.Sprint(w % 2)}).Inc()
			}
		}()
	}
	for s := 0; s < scrapers; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iterations/10; i++ {
				if err := reg.WritePrometheus(io.Discard); err != nil {
					t.Errorf("scrape: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	if got := c.Value(); got != writers*iterations {
		t.Fatalf("counter = %g, want %d", got, writers*iterations)
	}
	snap := h.Snapshot()
	if snap.Count != writers*iterations {
		t.Fatalf("histogram count = %d, want %d", snap.Count, writers*iterations)
	}
	var bucketTotal uint64
	for _, n := range snap.Counts {
		bucketTotal += n
	}
	if bucketTotal != snap.Count {
		t.Fatalf("bucket total %d != count %d", bucketTotal, snap.Count)
	}

	// A final scrape must be internally consistent: every cumulative
	// bucket sequence non-decreasing and ending at the series count.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatalf("final scrape: %v", err)
	}
	if !strings.Contains(b.String(), "race_latency_seconds_bucket{le=\"+Inf\"} 16000") {
		t.Fatalf("final scrape missing settled histogram count:\n%s", b.String())
	}
}
