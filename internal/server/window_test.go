package server

import (
	"testing"

	"sslic/internal/quality"
	"sslic/internal/telemetry"
)

// TestControlWindow: the pure window function takes the change between
// two readings, and the quality floor needs a majority of the window's
// frames collapsed.
func TestControlWindow(t *testing.T) {
	q := func(frames, collapsed float64) totals {
		return totals{quality: quality.Totals{Frames: frames, Collapsed: collapsed}}
	}
	for _, tc := range []struct {
		name                string
		prev, cur           totals
		observed, collapsed bool
	}{
		{"idle", q(0, 0), q(0, 0), false, false},
		{"idle after collapse", q(3, 2), q(3, 2), false, false},
		{"majority collapsed", q(0, 0), q(3, 2), true, true},
		{"exactly half", q(0, 0), q(2, 1), true, false},
		{"minority", q(0, 0), q(3, 1), true, false},
		{"earlier collapses do not count", q(3, 3), q(4, 3), true, false},
	} {
		sig, win := window(tc.prev, tc.cur)
		if sig.QualityObserved != tc.observed || sig.QualityCollapsed != tc.collapsed {
			t.Errorf("%s: observed=%v collapsed=%v, want %v %v",
				tc.name, sig.QualityObserved, sig.QualityCollapsed, tc.observed, tc.collapsed)
		}
		if want := tc.cur.quality.Frames - tc.prev.quality.Frames; win.QualityFrames != want {
			t.Errorf("%s: window quality frames %g, want %g", tc.name, win.QualityFrames, want)
		}
	}

	reg := telemetry.NewRegistry()
	lat := reg.Histogram("lat", "", nil)
	churn := reg.Histogram("churn", "", []float64{0.1, 0.5})
	lat.Observe(0.01)
	churn.Observe(0.2)
	prev := totals{latency: lat.Snapshot(), requests: 10, failed: 1, frames: 8, pj: 800,
		deadline: 2, saturated: 3, quality: quality.Totals{Frames: 8, EmptyFrames: 1, Churn: churn.Snapshot()}}
	lat.Observe(0.2)
	lat.Observe(0.3)
	churn.Observe(0.7)
	cur := totals{latency: lat.Snapshot(), requests: 15, failed: 3, frames: 12, pj: 1400,
		deadline: 3, saturated: 7, quality: quality.Totals{Frames: 12, EmptyFrames: 4, Churn: churn.Snapshot()}}
	sig, win := window(prev, cur)
	if sig.DeadlineMisses != 1 || sig.Rejected != 4 {
		t.Errorf("misses %d rejected %d, want 1 4", sig.DeadlineMisses, sig.Rejected)
	}
	if win.Latency.Count != 2 || win.Churn.Count != 1 || win.Churn.Counts[2] != 1 {
		t.Errorf("histogram windows: latency %d, churn %v", win.Latency.Count, win.Churn.Counts)
	}
	if win.Requests != 5 || win.Failed != 2 || win.Frames != 4 || win.PJ != 600 ||
		win.QualityFrames != 4 || win.EmptyFrames != 3 {
		t.Errorf("counter windows = %+v", win)
	}
}
