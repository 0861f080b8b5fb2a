package slic

import "math"

// InitCenters places superpixel centers on a regular grid with spacing
// S = sqrt(N/K) and optionally perturbs each to the lowest-gradient pixel
// in its 3×3 neighborhood (paper §2: "to avoid initialization on an edge
// or a noisy pixel"). The returned slice length is the effective K — the
// grid point count nearest to the requested K.
func InitCenters(lab *LabImage, k int, perturb bool) []Center {
	c, _ := InitCentersInto(lab, k, perturb, nil)
	return c
}

// InitCentersInto is InitCenters with a caller-owned gradient buffer,
// only consulted when perturb is set and reused when its capacity
// suffices. It returns the centers and the gradient buffer so the caller
// can hand the buffer back on the next frame.
func InitCentersInto(lab *LabImage, k int, perturb bool, grad []float64) ([]Center, []float64) {
	w, h := lab.W, lab.H
	nx, ny := CenterGridDims(w, h, k)
	var seedGrad []float64 // nil seeds at the cell centres
	if perturb {
		grad = GradientMapInto(lab, grad)
		seedGrad = grad
	}
	centers := make([]Center, 0, nx*ny)
	for gy := 0; gy < ny; gy++ {
		for gx := 0; gx < nx; gx++ {
			x, y := GridSeed(w, h, nx, ny, gx, gy, seedGrad)
			i := y*w + x
			centers = append(centers, Center{
				L: lab.L[i], A: lab.A[i], B: lab.B[i],
				X: float64(x), Y: float64(y),
			})
		}
	}
	return centers, grad
}

// GridSeed is §2's seed of cell (gx, gy) of an nx×ny grid on a w×h
// image: the cell's centre pixel, moved to the lowest-gradient pixel of
// its 3×3 neighborhood when grad is non-nil, ties resolved in favor of
// the cell centre first, then scan order. Both datapaths seed through
// it, each on its own gradient map (T is the map's arithmetic).
func GridSeed[T int64 | float64](w, h, nx, ny, gx, gy int, grad []T) (x, y int) {
	x = min(w-1, int((float64(gx)+0.5)*float64(w)/float64(nx)))
	y = min(h-1, int((float64(gy)+0.5)*float64(h)/float64(ny)))
	if grad == nil {
		return x, y
	}
	bestX, bestY := x, y
	best := grad[y*w+x]
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			px, py := x+dx, y+dy
			if px < 0 || px >= w || py < 0 || py >= h {
				continue
			}
			if g := grad[py*w+px]; g < best {
				best = g
				bestX, bestY = px, py
			}
		}
	}
	return bestX, bestY
}

// CenterGridDims returns the (nx, ny) grid used by InitCenters for a w×h
// image and requested K; the effective superpixel count is nx*ny.
func CenterGridDims(w, h, k int) (nx, ny int) {
	s := GridInterval(w, h, k)
	return max(1, int(float64(w)/s+0.5)), max(1, int(float64(h)/s+0.5))
}

// GradientMap computes the squared gradient magnitude of §2's
// initialization step on all three Lab channels:
//
//	G(x,y) = ‖I(x+1,y) − I(x−1,y)‖² + ‖I(x,y+1) − I(x,y−1)‖²
//
// Border pixels get +Inf so perturbation never moves a center onto the
// image edge.
func GradientMap(lab *LabImage) []float64 {
	return GradientMapInto(lab, nil)
}

// GradientMapInto is GradientMap writing into a caller-owned buffer,
// reallocating only when its capacity is below W*H. Every element is
// overwritten, so a recycled buffer never leaks stale gradients.
func GradientMapInto(lab *LabImage, grad []float64) []float64 {
	w, h := lab.W, lab.H
	grad = growFloats(grad, w*h)
	for i := range grad {
		grad[i] = math.Inf(1)
	}
	for y := 1; y < h-1; y++ {
		for x := 1; x < w-1; x++ {
			i := y*w + x
			gx := sq(lab.L[i+1]-lab.L[i-1]) + sq(lab.A[i+1]-lab.A[i-1]) + sq(lab.B[i+1]-lab.B[i-1])
			gy := sq(lab.L[i+w]-lab.L[i-w]) + sq(lab.A[i+w]-lab.A[i-w]) + sq(lab.B[i+w]-lab.B[i-w])
			grad[i] = gx + gy
		}
	}
	return grad
}

func sq(v float64) float64 { return v * v }
