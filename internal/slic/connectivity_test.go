package slic

import (
	"testing"
	"testing/quick"

	"sslic/internal/imgio"
)

// componentCount returns the number of 4-connected components in lm.
func componentCount(lm *imgio.LabelMap) int {
	w, h := lm.W, lm.H
	seen := make([]bool, w*h)
	count := 0
	var stack []int
	for seed := range seen {
		if seen[seed] {
			continue
		}
		count++
		lbl := lm.Labels[seed]
		stack = append(stack[:0], seed)
		seen[seed] = true
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			x, y := cur%w, cur/w
			for _, d := range [4][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
				nx, ny := x+d[0], y+d[1]
				if nx < 0 || nx >= w || ny < 0 || ny >= h {
					continue
				}
				ni := ny*w + nx
				if !seen[ni] && lm.Labels[ni] == lbl {
					seen[ni] = true
					stack = append(stack, ni)
				}
			}
		}
	}
	return count
}

func TestEnforceConnectivityMergesStrayPixel(t *testing.T) {
	// A single stray pixel of label 1 inside a sea of label 0.
	lm := imgio.NewLabelMap(8, 8)
	for i := range lm.Labels {
		lm.Labels[i] = 0
	}
	lm.Set(4, 4, 1)
	n := EnforceConnectivity(lm, 4)
	if n != 1 {
		t.Fatalf("regions after merge = %d, want 1", n)
	}
	if lm.At(4, 4) != lm.At(0, 0) {
		t.Fatal("stray pixel not absorbed")
	}
}

func TestEnforceConnectivityKeepsLargeRegions(t *testing.T) {
	// Two large halves must both survive.
	lm := imgio.NewLabelMap(10, 10)
	for y := 0; y < 10; y++ {
		for x := 0; x < 10; x++ {
			if x < 5 {
				lm.Set(x, y, 0)
			} else {
				lm.Set(x, y, 1)
			}
		}
	}
	n := EnforceConnectivity(lm, 10)
	if n != 2 {
		t.Fatalf("regions = %d, want 2", n)
	}
	if lm.At(0, 0) == lm.At(9, 9) {
		t.Fatal("halves merged incorrectly")
	}
}

func TestEnforceConnectivitySplitsDisjointSameLabel(t *testing.T) {
	// Label 0 appears in two disconnected blobs, both large: they must
	// get distinct labels afterwards (each label = one component).
	lm := imgio.NewLabelMap(12, 4)
	for y := 0; y < 4; y++ {
		for x := 0; x < 12; x++ {
			switch {
			case x < 4:
				lm.Set(x, y, 0)
			case x < 8:
				lm.Set(x, y, 1)
			default:
				lm.Set(x, y, 0)
			}
		}
	}
	n := EnforceConnectivity(lm, 4)
	if n != 3 {
		t.Fatalf("regions = %d, want 3", n)
	}
	if lm.At(0, 0) == lm.At(11, 0) {
		t.Fatal("disjoint blobs share a label")
	}
}

func TestEnforceConnectivityDenseLabels(t *testing.T) {
	lm := imgio.NewLabelMap(9, 9)
	for i := range lm.Labels {
		lm.Labels[i] = int32((i * 7) % 5)
	}
	n := EnforceConnectivity(lm, 2)
	// Labels must be dense 0..n-1.
	maxLbl := lm.MaxLabel()
	if int(maxLbl)+1 != n {
		t.Fatalf("labels not dense: max %d for %d regions", maxLbl, n)
	}
	if lm.NumRegions() != n {
		t.Fatalf("NumRegions %d != returned %d", lm.NumRegions(), n)
	}
}

func TestEnforceConnectivityInvariantProperty(t *testing.T) {
	// For random label maps: after the pass, every label is 4-connected
	// (component count equals distinct label count) and every pixel is
	// assigned.
	prop := func(seed int64) bool {
		rng := newRand(seed)
		w := 6 + int(rng()%10)
		h := 6 + int(rng()%10)
		lm := imgio.NewLabelMap(w, h)
		for i := range lm.Labels {
			lm.Labels[i] = int32(rng() % 4)
		}
		n := EnforceConnectivity(lm, 3)
		if lm.NumRegions() != n {
			return false
		}
		return componentCount(lm) == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestEnforceConnectivityScanOrderLabels pins the numbering the pass
// writes without a remap: on random maps and minimum sizes, labels
// first appear in scan order as 0, 1, 2, … and the return value is the
// largest label plus 1.
func TestEnforceConnectivityScanOrderLabels(t *testing.T) {
	prop := func(seed int64) bool {
		rng := newRand(seed)
		w := 1 + int(rng()%24)
		h := 1 + int(rng()%24)
		nl := 1 + rng()%6
		lm := imgio.NewLabelMap(w, h)
		for i := range lm.Labels {
			lm.Labels[i] = int32(rng() % nl)
		}
		n := EnforceConnectivity(lm, int(rng()%12))
		next := int32(0) // the label the next new one must be
		for _, v := range lm.Labels {
			if v > next || v < 0 {
				return false
			}
			if v == next {
				next++
			}
		}
		return n == int(next) && n == int(lm.MaxLabel())+1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestEnforceConnectivityMinSizeSweep(t *testing.T) {
	// Larger minSize can only reduce (or keep) the region count.
	build := func() *imgio.LabelMap {
		lm := imgio.NewLabelMap(16, 16)
		for i := range lm.Labels {
			lm.Labels[i] = int32((i / 3) % 6)
		}
		return lm
	}
	prev := 1 << 30
	for _, minSize := range []int{1, 4, 16, 64} {
		lm := build()
		n := EnforceConnectivity(lm, minSize)
		if n > prev {
			t.Fatalf("region count increased with minSize %d: %d > %d", minSize, n, prev)
		}
		prev = n
	}
}

// newRand is a tiny deterministic generator for property tests.
func newRand(seed int64) func() uint32 {
	s := uint64(seed)*2862933555777941757 + 3037000493
	return func() uint32 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return uint32(s >> 32)
	}
}
