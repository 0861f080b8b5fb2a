package metrics

import (
	"math"
	"testing"

	"sslic/internal/imgio"
)

func TestBoundaryPrecisionPerfect(t *testing.T) {
	gt := grid(32, 32, 2, 2)
	p, err := BoundaryPrecision(gt, gt, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p != 1 {
		t.Fatalf("precision(x, x) = %g", p)
	}
}

func TestBoundaryPrecisionPenalizesExtraBoundaries(t *testing.T) {
	// sp has many boundaries, gt only one: precision must be low while
	// recall stays perfect.
	sp := grid(64, 8, 16, 1)
	gt := grid(64, 8, 2, 1)
	p, err := BoundaryPrecision(sp, gt, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := BoundaryRecall(sp, gt, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r != 1 {
		t.Fatalf("recall = %g, want 1 (sp covers the gt boundary)", r)
	}
	if p > 0.5 {
		t.Fatalf("precision = %g, want low for oversegmentation", p)
	}
}

func TestBoundaryPrecisionNoPredictions(t *testing.T) {
	sp := grid(16, 16, 1, 1)
	gt := grid(16, 16, 2, 2)
	p, err := BoundaryPrecision(sp, gt, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p != 1 {
		t.Fatalf("precision with no predictions = %g, want 1 by convention", p)
	}
}

func TestBoundaryPrecisionErrors(t *testing.T) {
	a := grid(8, 8, 2, 2)
	b := grid(9, 8, 2, 2)
	if _, err := BoundaryPrecision(a, b, 2); err == nil {
		t.Error("size mismatch accepted")
	}
	if _, err := BoundaryPrecision(a, a, -1); err == nil {
		t.Error("negative tolerance accepted")
	}
}

func TestBoundaryF1(t *testing.T) {
	gt := grid(32, 32, 2, 2)
	f1, err := BoundaryF1(gt, gt, 2)
	if err != nil {
		t.Fatal(err)
	}
	if f1 != 1 {
		t.Fatalf("F1(x, x) = %g", f1)
	}
	// Oversegmented: recall 1, precision < 1 → F1 strictly between.
	sp := grid(64, 8, 16, 1)
	gtc := grid(64, 8, 2, 1)
	f1, err = BoundaryF1(sp, gtc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if f1 <= 0 || f1 >= 1 {
		t.Fatalf("F1 = %g, want in (0, 1)", f1)
	}
	p, _ := BoundaryPrecision(sp, gtc, 1)
	r, _ := BoundaryRecall(sp, gtc, 1)
	want := 2 * p * r / (p + r)
	if math.Abs(f1-want) > 1e-12 {
		t.Fatalf("F1 = %g, want %g", f1, want)
	}
}

func TestBoundaryF1PropagatesErrors(t *testing.T) {
	a := grid(8, 8, 2, 2)
	b := grid(9, 8, 2, 2)
	if _, err := BoundaryF1(a, b, 2); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestContourDensity(t *testing.T) {
	// Uniform map: zero density.
	if d := ContourDensity(grid(16, 16, 1, 1)); d != 0 {
		t.Fatalf("uniform density = %g", d)
	}
	// Finer grids have strictly higher density.
	coarse := ContourDensity(grid(64, 64, 2, 2))
	fine := ContourDensity(grid(64, 64, 8, 8))
	if fine <= coarse {
		t.Fatalf("density not increasing: %g vs %g", coarse, fine)
	}
	// A vertical split of width w: two boundary columns of h pixels.
	lm := imgio.NewLabelMap(10, 4)
	for y := 0; y < 4; y++ {
		for x := 0; x < 10; x++ {
			if x < 5 {
				lm.Set(x, y, 0)
			} else {
				lm.Set(x, y, 1)
			}
		}
	}
	if d := ContourDensity(lm); math.Abs(d-8.0/40) > 1e-12 {
		t.Fatalf("density = %g, want 0.2", d)
	}
	// Two one-pixel-wide superpixels side by side: every pixel touches
	// a horizontal neighbor with a different label.
	lm = &imgio.LabelMap{W: 2, H: 2, Labels: []int32{0, 1, 0, 1}}
	if d := ContourDensity(lm); d != 1 {
		t.Fatalf("striped density = %g, want 1", d)
	}
}
