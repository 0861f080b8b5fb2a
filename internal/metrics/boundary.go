package metrics

import (
	"fmt"

	"sslic/internal/imgio"
)

// Boundary precision / F-score complement the paper's boundary recall:
// recall alone can be gamed by producing dense boundaries everywhere, so
// evaluations usually report the precision (how many predicted boundary
// pixels are near a true boundary) and their harmonic mean alongside it.

// BoundaryPrecision computes the fraction of computed boundary pixels
// that lie within tolerance (Chebyshev) of a ground-truth boundary
// pixel. Higher is better.
func BoundaryPrecision(sp, gt *imgio.LabelMap, tolerance int) (float64, error) {
	if sp.W != gt.W || sp.H != gt.H {
		return 0, fmt.Errorf("metrics: size mismatch %dx%d vs %dx%d", sp.W, sp.H, gt.W, gt.H)
	}
	if tolerance < 0 {
		return 0, fmt.Errorf("metrics: negative tolerance %d", tolerance)
	}
	gtMask := gt.BoundaryMask()
	w, h := sp.W, sp.H
	var spBoundary, hit int
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if !sp.IsBoundary(x, y) {
				continue
			}
			spBoundary++
			if nearMask(gtMask, w, h, x, y, tolerance) {
				hit++
			}
		}
	}
	if spBoundary == 0 {
		return 1, nil // no predictions → vacuously precise
	}
	return float64(hit) / float64(spBoundary), nil
}

// BoundaryF1 is the harmonic mean of boundary recall and precision at
// the given tolerance.
func BoundaryF1(sp, gt *imgio.LabelMap, tolerance int) (float64, error) {
	r, err := BoundaryRecall(sp, gt, tolerance)
	if err != nil {
		return 0, err
	}
	p, err := BoundaryPrecision(sp, gt, tolerance)
	if err != nil {
		return 0, err
	}
	if r+p == 0 {
		return 0, nil
	}
	return 2 * r * p / (r + p), nil
}
