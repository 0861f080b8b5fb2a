package slic

import (
	"math"
	"testing"

	"sslic/internal/imgio"
)

// testImage builds a w×h image split into vertical color bands, a shape
// SLIC must segment cleanly.
func testImage(w, h, bands int) *imgio.Image {
	im := imgio.NewImage(w, h)
	colors := [][3]uint8{
		{220, 40, 40}, {40, 220, 40}, {40, 40, 220},
		{220, 220, 40}, {40, 220, 220}, {220, 40, 220},
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			c := colors[(x*bands/w)%len(colors)]
			im.Set(x, y, c[0], c[1], c[2])
		}
	}
	return im
}

func TestGridInterval(t *testing.T) {
	if s := GridInterval(100, 100, 100); math.Abs(s-10) > 1e-9 {
		t.Fatalf("S = %g, want 10", s)
	}
}

func TestInitCentersCountAndPlacement(t *testing.T) {
	im := testImage(60, 60, 3)
	lab := ToLab(im)
	centers := InitCenters(lab, 36, false)
	if len(centers) != 36 {
		t.Fatalf("got %d centers, want 36", len(centers))
	}
	for i, c := range centers {
		if c.X < 0 || c.X >= 60 || c.Y < 0 || c.Y >= 60 {
			t.Fatalf("center %d at (%g,%g) outside image", i, c.X, c.Y)
		}
	}
	// Centers must be spread: no two share a position.
	seen := map[[2]float64]bool{}
	for _, c := range centers {
		key := [2]float64{c.X, c.Y}
		if seen[key] {
			t.Fatalf("duplicate center position %v", key)
		}
		seen[key] = true
	}
}

func TestCenterGridDims(t *testing.T) {
	nx, ny := CenterGridDims(100, 100, 100)
	if nx != 10 || ny != 10 {
		t.Fatalf("grid %dx%d, want 10x10", nx, ny)
	}
	nx, ny = CenterGridDims(200, 100, 50)
	if nx*ny < 40 || nx*ny > 60 {
		t.Fatalf("effective K %d too far from 50", nx*ny)
	}
	if nx <= ny {
		t.Fatalf("wide image should have nx > ny, got %dx%d", nx, ny)
	}
}

func TestGradientPerturbationAvoidsEdges(t *testing.T) {
	// A sharp vertical edge down the middle: the gradient there is huge,
	// so a center initialized on the edge must move off it.
	im := imgio.NewImage(21, 21)
	for y := 0; y < 21; y++ {
		for x := 0; x < 21; x++ {
			if x >= 10 {
				im.Set(x, y, 255, 255, 255)
			}
		}
	}
	lab := ToLab(im)
	grad := GradientMap(lab)
	// Gradient at the edge column must exceed gradient in flat areas.
	if grad[10*21+10] <= grad[10*21+5] {
		t.Fatal("edge gradient not larger than flat gradient")
	}
	x, y := GridSeed(21, 21, 1, 1, 0, 0, grad) // the cell centre is (10, 10)
	if x == 10 {
		t.Fatalf("perturbation kept center on the edge column (%d,%d)", x, y)
	}
}

func TestGradientMapBordersInf(t *testing.T) {
	im := testImage(8, 8, 2)
	grad := GradientMap(ToLab(im))
	for x := 0; x < 8; x++ {
		if !math.IsInf(grad[x], 1) || !math.IsInf(grad[7*8+x], 1) {
			t.Fatal("top/bottom border gradient must be +Inf")
		}
	}
	for y := 0; y < 8; y++ {
		if !math.IsInf(grad[y*8], 1) || !math.IsInf(grad[y*8+7], 1) {
			t.Fatal("left/right border gradient must be +Inf")
		}
	}
}

func TestDistance5(t *testing.T) {
	c := &Center{L: 0, A: 0, B: 0, X: 0, Y: 0}
	// Pure color distance.
	if d := Distance5(3, 4, 0, 0, 0, c, 1); d != 25 {
		t.Fatalf("color distance = %g, want 25", d)
	}
	// Pure spatial distance with invS2 = m²/S² = 4.
	if d := Distance5(0, 0, 0, 3, 4, c, 4); d != 100 {
		t.Fatalf("spatial distance = %g, want 100", d)
	}
	// Distance to self is zero.
	if d := Distance5(0, 0, 0, 0, 0, c, 1); d != 0 {
		t.Fatalf("self distance = %g", d)
	}
}

func TestDistance5SymmetricInColor(t *testing.T) {
	c1 := &Center{L: 10, A: 5, B: -5}
	c2 := &Center{L: 20, A: -5, B: 5}
	d12 := Distance5(c2.L, c2.A, c2.B, 0, 0, c1, 1)
	d21 := Distance5(c1.L, c1.A, c1.B, 0, 0, c2, 1)
	if d12 != d21 {
		t.Fatalf("asymmetric: %g vs %g", d12, d21)
	}
}

func TestUpdateCentersMovesToMean(t *testing.T) {
	// Single center, all pixels labeled 0: center must move to the image
	// centroid and mean color.
	im := testImage(10, 10, 1)
	lab := ToLab(im)
	labels := imgio.NewLabelMap(10, 10)
	for i := range labels.Labels {
		labels.Labels[i] = 0
	}
	centers := []Center{{X: 0, Y: 0}}
	move := UpdateCenters(lab, labels, centers)
	if math.Abs(centers[0].X-4.5) > 1e-9 || math.Abs(centers[0].Y-4.5) > 1e-9 {
		t.Fatalf("center at (%g,%g), want (4.5,4.5)", centers[0].X, centers[0].Y)
	}
	if move != 9 { // |4.5-0| + |4.5-0|
		t.Fatalf("move = %g, want 9", move)
	}
}

func TestUpdateCentersKeepsEmptyCenters(t *testing.T) {
	im := testImage(10, 10, 1)
	lab := ToLab(im)
	labels := imgio.NewLabelMap(10, 10)
	for i := range labels.Labels {
		labels.Labels[i] = 0
	}
	centers := []Center{{X: 1, Y: 1}, {X: 7, Y: 7, L: 42}}
	UpdateCenters(lab, labels, centers)
	if centers[1].X != 7 || centers[1].Y != 7 || centers[1].L != 42 {
		t.Fatal("empty center must keep its state")
	}
}
