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

// floodFillConnectivity is the connectivity pass as the original SLIC
// release writes it, one pixel at a time: for each unlabelled seed in
// scan order, note the last labelled 4-neighbour (left, right, up,
// down), flood fill the seed's component into a fresh plane, and hand
// a component below minSize that is not the first to that neighbour's
// label. It is the reference EnforceConnectivity must reproduce exactly.
func floodFillConnectivity(labels *imgio.LabelMap, minSize int) int {
	w, h := labels.W, labels.H
	n := w * h
	newLabels := make([]int32, n)
	for i := range newLabels {
		newLabels[i] = -1
	}
	dx4 := [4]int{-1, 1, 0, 0}
	dy4 := [4]int{0, 0, -1, 1}
	var stack, component []int
	next := int32(0)
	adjacent := int32(0)
	for seed := 0; seed < n; seed++ {
		if newLabels[seed] >= 0 {
			continue
		}
		lbl := labels.Labels[seed]
		sx, sy := seed%w, seed/w
		for k := 0; k < 4; k++ {
			nx, ny := sx+dx4[k], sy+dy4[k]
			if nx < 0 || nx >= w || ny < 0 || ny >= h {
				continue
			}
			if v := newLabels[ny*w+nx]; v >= 0 {
				adjacent = v
			}
		}
		stack = append(stack[:0], seed)
		component = append(component[:0], seed)
		newLabels[seed] = next
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			cx, cy := cur%w, cur/w
			for k := 0; k < 4; k++ {
				nx, ny := cx+dx4[k], cy+dy4[k]
				if nx < 0 || nx >= w || ny < 0 || ny >= h {
					continue
				}
				ni := ny*w + nx
				if newLabels[ni] < 0 && labels.Labels[ni] == lbl {
					newLabels[ni] = next
					stack = append(stack, ni)
					component = append(component, ni)
				}
			}
		}
		if len(component) < minSize && next > 0 {
			for _, i := range component {
				newLabels[i] = adjacent
			}
		} else {
			next++
		}
	}
	copy(labels.Labels, newLabels)
	return int(next)
}

// checkAgainstFloodFill runs both passes on copies of lm and reports the
// first pixel, or the count, where they differ.
func checkAgainstFloodFill(t *testing.T, c *Connectivity, lm *imgio.LabelMap, minSize int) {
	t.Helper()
	want := imgio.NewLabelMap(lm.W, lm.H)
	copy(want.Labels, lm.Labels)
	got := imgio.NewLabelMap(lm.W, lm.H)
	copy(got.Labels, lm.Labels)
	wantN := floodFillConnectivity(want, minSize)
	gotN := c.Enforce(got, minSize)
	if gotN != wantN {
		t.Fatalf("%dx%d, min size %d: %d components, flood fill %d", lm.W, lm.H, minSize, gotN, wantN)
	}
	for i := range want.Labels {
		if got.Labels[i] != want.Labels[i] {
			t.Fatalf("%dx%d, min size %d: pixel (%d, %d) labelled %d, flood fill %d",
				lm.W, lm.H, minSize, i%lm.W, i/lm.W, got.Labels[i], want.Labels[i])
		}
	}
}

// TestEnforceConnectivityMatchesFloodFill: the run pass labels every
// pixel as the flood fill does and returns its count, on random maps of
// 1 to 6 labels (one-pixel rows and columns included), on uniform maps
// and checkerboards, for minimum sizes from 0 past the pixel count. One
// Connectivity serves every map, so reuse across geometries is covered.
// Most minimum sizes are below 20, where some components are kept and
// some merged, so the choice of neighbour shows in the labels.
func TestEnforceConnectivityMatchesFloodFill(t *testing.T) {
	var c Connectivity
	rng := newRand(7)
	for iter := 0; iter < 5000; iter++ {
		w, h := 1+int(rng()%40), 1+int(rng()%40)
		switch iter % 10 {
		case 0:
			w = 1
		case 1:
			h = 1
		}
		nl := 1 + rng()%6
		lm := imgio.NewLabelMap(w, h)
		for i := range lm.Labels {
			lm.Labels[i] = int32(rng() % nl)
		}
		minSize := int(rng() % 20)
		if iter%5 == 0 {
			minSize = int(rng() % uint32(w*h+3))
		}
		checkAgainstFloodFill(t, &c, lm, minSize)
	}
	for _, sz := range [][2]int{{1, 1}, {1, 9}, {9, 1}, {7, 5}, {16, 16}} {
		w, h := sz[0], sz[1]
		uniform := imgio.NewLabelMap(w, h)
		checker := imgio.NewLabelMap(w, h)
		for i := range checker.Labels {
			checker.Labels[i] = int32((i%w + i/w) % 2)
		}
		for _, minSize := range []int{0, 1, 2, w * h, w*h + 1} {
			checkAgainstFloodFill(t, &c, uniform, minSize)
			checkAgainstFloodFill(t, &c, checker, minSize)
		}
	}
}

// FuzzConnectivity compares the run pass with the flood fill on
// arbitrary maps: labels, the returned count and the reuse of one
// Connectivity across inputs must all agree exactly.
func FuzzConnectivity(f *testing.F) {
	f.Add(uint8(5), []byte{0, 1, 0, 1, 1, 0, 2, 2, 0, 1, 1, 1, 0, 0, 2}, uint16(3))
	f.Add(uint8(1), []byte{3, 3, 1, 3, 1}, uint16(2))
	f.Add(uint8(16), []byte{0}, uint16(0))
	var c Connectivity
	f.Fuzz(func(t *testing.T, w uint8, data []byte, minSize uint16) {
		if w == 0 || len(data) == 0 || len(data) > 1024 {
			return
		}
		width := int(w)
		h := (len(data) + width - 1) / width
		lm := imgio.NewLabelMap(width, h)
		for i := range lm.Labels {
			// Few distinct labels, so components span rows.
			lm.Labels[i] = int32(data[i%len(data)] % 5)
		}
		checkAgainstFloodFill(t, &c, lm, int(minSize))
	})
}
