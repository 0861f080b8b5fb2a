package sslic

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"sslic/internal/telemetry"
)

// countingCtx is a context whose Err flips to Canceled after limit
// calls. It makes cancellation-latency tests deterministic: the number
// of subset passes a run completes before noticing the cancel is
// exactly the number of Err checks the implementation performs, with no
// timing involved.
type countingCtx struct {
	context.Context
	calls atomic.Int64
	limit int64
}

func (c *countingCtx) Err() error {
	if c.calls.Add(1) > c.limit {
		return context.Canceled
	}
	return nil
}

// TestSegmentContextCancelWithinOneRound proves SegmentContext checks
// the context between subset passes, not just once per run: with the
// context canceling after a fixed number of Err calls, the run must
// stop after at most that many passes — far short of its iteration
// budget — for both architectures.
func TestSegmentContextCancelWithinOneRound(t *testing.T) {
	im := testImage(64, 48)
	for _, arch := range []Arch{PPA, CPA} {
		reg := telemetry.NewRegistry()
		p := DefaultParams(24, 0.5)
		p.FullIters = 10 // 20 subset passes at ratio 0.5
		p.Arch = arch
		p.Metrics = NewMetrics(reg)

		// Err call schedule: 1 at entry, then 1 per pass. limit=4 allows
		// entry + 3 clean pass checks, so at most 3 passes complete.
		ctx := &countingCtx{Context: context.Background(), limit: 4}
		r, err := SegmentContext(ctx, im, p)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: got (%v, %v), want context.Canceled", arch, r, err)
		}
		passes := p.Metrics.SubsetPasses.Value()
		if passes > 3 {
			t.Fatalf("%v: %v passes completed after cancel, want <= 3 (one check per pass)", arch, passes)
		}
		if p.Metrics.Segmentations.Value() != 0 {
			t.Fatalf("%v: canceled run recorded as completed segmentation", arch)
		}
	}
}

// TestSegmentContextRatioNearZero: a subsample ratio near 0 asks for
// round(1/ratio) subsets. Above the frame's pixel count that is more
// subsets than pixels: at ratio 1e-10, 10^10 of them, and at 5e-324 a
// count that overflows int and once ran no pass at all. Validate refuses
// each such ratio before anything is sized. At the bound, round(1/ratio)
// = W·H, the run is valid and asks for FullIters × W·H passes, a count
// it must not size anything by before its first pass: it is cancelled
// after at most 3 passes and allocates little.
func TestSegmentContextRatioNearZero(t *testing.T) {
	const w, h = 64, 48
	im := testImage(w, h)
	for _, c := range []struct {
		ratio float64
		iters int
		valid bool
	}{
		{1e-10, 100, false},
		{1e-4, 1000, false},
		{5e-324, 1, false},
		{1.0 / (w*h + 1), 1, false},
		{1.0 / (w * h), 1000, true}, // 3,072,000 passes, 24 MB of history
	} {
		p := DefaultParams(24, c.ratio)
		p.FullIters = c.iters
		verr := p.Validate(w, h)
		ctx := &countingCtx{Context: context.Background(), limit: 4}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := SegmentContext(ctx, im, p)
		runtime.ReadMemStats(&after)
		switch {
		case c.valid && (verr != nil || !errors.Is(err, context.Canceled)):
			t.Fatalf("ratio %g, %d iterations: Validate %v, run %v; want a valid run, cancelled", c.ratio, c.iters, verr, err)
		case !c.valid && (verr == nil || err == nil || err.Error() != verr.Error()):
			t.Fatalf("ratio %g, %d iterations: Validate %v, run %v; want Validate's error from both", c.ratio, c.iters, verr, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
			t.Errorf("ratio %g, %d iterations: %d bytes allocated, want at most 4 MiB", c.ratio, c.iters, got)
		}
	}
}

// TestSegmentContextPreCanceled: an already-canceled context must
// return before any pass runs.
func TestSegmentContextPreCanceled(t *testing.T) {
	im := testImage(32, 32)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, arch := range []Arch{PPA, CPA} {
		reg := telemetry.NewRegistry()
		p := DefaultParams(9, 0.5)
		p.Arch = arch
		p.Metrics = NewMetrics(reg)
		if _, err := SegmentContext(ctx, im, p); !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: err = %v, want context.Canceled", arch, err)
		}
		if n := p.Metrics.SubsetPasses.Value(); n != 0 {
			t.Fatalf("%v: %v passes ran under a pre-canceled context", arch, n)
		}
	}
}

// TestSegmentContextBackground: a background context must not change
// behaviour — Segment delegates to SegmentContext, so the golden tests
// elsewhere already pin the results; here we just confirm success.
func TestSegmentContextBackground(t *testing.T) {
	im := testImage(32, 32)
	r1, err := Segment(im, DefaultParams(9, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := SegmentContext(context.Background(), im, DefaultParams(9, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Labels.Labels {
		if r1.Labels.Labels[i] != r2.Labels.Labels[i] {
			t.Fatalf("label %d differs between Segment and SegmentContext", i)
		}
	}
}
