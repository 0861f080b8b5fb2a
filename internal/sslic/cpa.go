package sslic

import (
	"math"

	"sslic/internal/imgio"
	"sslic/internal/slic"
)

// cpaKernel is the center perspective architecture of §4.2: the
// superpixel centers are split into equal subsets traversed round-robin;
// each pass updates one subset of centers by scanning the 2S×2S patch
// around each of them, exactly like original SLIC restricted to that
// subset. Persistent minimum-distance and label buffers carry state
// between passes (the two image-sized memory buffers of §2).
type cpaKernel struct {
	floatPath
	dist []float64
}

func (kn *cpaKernel) seed(tiling *Tiling, labels *imgio.LabelMap) {
	kn.tiling, kn.labels = tiling, labels
	kn.centers = kn.scr.initCenters(kn.lab, kn.p.K, kn.p.PerturbCenters)
	// CPA assigns pixels through a running minimum rather than visiting
	// every pixel each pass, so the labels start Unassigned; the first
	// pass of every round resets the minimum-distance buffer.
	for i := range labels.Labels {
		labels.Labels[i] = imgio.Unassigned
	}
	kn.dist = grow(&kn.scr.dist, len(labels.Labels))
}

func (kn *cpaKernel) assign(_, subset int) (calcs, skipped, saved int64, err error) {
	// Distance decay: because centers move between passes, retained
	// minima go slightly stale; original SLIC resets the buffer every
	// iteration. Reset at the start of each full round so every pixel
	// is re-contested once per full iteration.
	if subset == 0 {
		resetDist(kn.dist)
	}
	return kn.sweep(subset, nil), 0, 0, nil
}

// resetDist sets every running minimum to +Inf.
func resetDist(dist []float64) {
	for i := range dist {
		dist[i] = math.Inf(1)
	}
}

// sweep is the windowed assignment of SLIC and the CPA: every pixel in
// the 2S×2S window of each center ci with ci mod k == subset is tested
// against Equation 5 and claims the center when the distance beats the
// pixel's running minimum. It returns the distance evaluations.
//
// With a SLICO scale, the distance is dc²/scale[ci] + ds²/S², and after
// the sweep each center's scale becomes the largest dc² among the
// pixels it claimed, when that is above 1.
func (kn *cpaKernel) sweep(subset int, scale []float64) (calcs int64) {
	lab, labels, centers, dist := kn.lab, kn.labels, kn.centers, kn.dist
	s, k, invS2 := kn.s, kn.k, kn.invS2
	w, h := lab.W, lab.H
	invS2spatial := 1 / (s * s)
	var peak []float64
	if scale != nil {
		peak = make([]float64, len(centers))
	}
	for ci := range centers {
		if ci%k != subset {
			continue
		}
		c := &centers[ci]
		x0 := max(0, int(c.X-s))
		x1 := min(w-1, int(c.X+s))
		y0 := max(0, int(c.Y-s))
		y1 := min(h-1, int(c.Y+s))
		for y := y0; y <= y1; y++ {
			row := y * w
			for x := x0; x <= x1; x++ {
				i := row + x
				var d, dc2 float64
				if scale != nil {
					var ds2 float64
					dc2, ds2 = slic.DistanceParts(lab.L[i], lab.A[i], lab.B[i], float64(x), float64(y), c)
					d = dc2/scale[ci] + ds2*invS2spatial
				} else {
					d = slic.Distance5(lab.L[i], lab.A[i], lab.B[i], float64(x), float64(y), c, invS2)
				}
				calcs++
				if d < dist[i] {
					dist[i] = d
					labels.Labels[i] = int32(ci)
					if peak != nil && dc2 > peak[ci] {
						peak[ci] = dc2
					}
				}
			}
		}
	}
	for ci, v := range peak {
		if v > 1 { // a floor so the normalization never explodes
			scale[ci] = v
		}
	}
	return calcs
}

// update recomputes the pass's subset of centers from their current
// members inside their (enlarged) windows. The subset holds the
// ⌈(K−subset)/k⌉ centers ci with ci mod k == subset.
func (kn *cpaKernel) update(subset int) (float64, int) {
	return updateCPASubset(kn.lab, kn.labels, kn.centers, subset, kn.k, kn.s), (len(kn.centers) - subset + kn.k - 1) / kn.k
}

// finish gives the pixels no window ever claimed (possible off-grid
// corners) the nearest center by position.
func (kn *cpaKernel) finish() []slic.Center {
	ownCenterFill(kn.labels, kn.tiling, true)
	return kn.centers
}

// updateCPASubset recomputes the centers of one subset as the mean of the
// pixels currently labeled to them within a 2S-radius window (members
// further out are vanishingly rare for converging SLIC). Returns the
// summed L1 movement of the updated centers.
func updateCPASubset(lab *slic.LabImage, labels *imgio.LabelMap, centers []slic.Center, subset, k int, s float64) float64 {
	w, h := lab.W, lab.H
	var move float64
	for ci := range centers {
		if ci%k != subset {
			continue
		}
		c := &centers[ci]
		x0 := max(0, int(c.X-2*s))
		x1 := min(w-1, int(c.X+2*s))
		y0 := max(0, int(c.Y-2*s))
		y1 := min(h-1, int(c.Y+2*s))
		var sg sigma
		for y := y0; y <= y1; y++ {
			row := y * w
			for x := x0; x <= x1; x++ {
				i := row + x
				if labels.Labels[i] != int32(ci) {
					continue
				}
				sg.l += lab.L[i]
				sg.a += lab.A[i]
				sg.b += lab.B[i]
				sg.x += float64(x)
				sg.y += float64(y)
				sg.n++
			}
		}
		if sg.n == 0 {
			continue
		}
		n := float64(sg.n)
		nx, ny := sg.x/n, sg.y/n
		move += math.Abs(nx-c.X) + math.Abs(ny-c.Y)
		c.L, c.A, c.B, c.X, c.Y = sg.l/n, sg.a/n, sg.b/n, nx, ny
	}
	return move
}

// slicKernel is the reference SLIC of §2 (Achanta et al., Figure 1a) on
// the pass driver, at SubsampleRatio 1: each pass resets the running
// minima, sweeps every center's 2S×2S window, then recomputes every
// center from the whole image. Pixels no window claimed stay
// Unassigned until connectivity absorbs them. With AdaptiveCompactness
// it is SLICO: each center carries its own colour scale, seeded with m².
type slicKernel struct {
	cpaKernel
	scale []float64 // SLICO colour scale per center; nil for SLIC
}

func (kn *slicKernel) seed(tiling *Tiling, labels *imgio.LabelMap) {
	kn.cpaKernel.seed(tiling, labels)
	if kn.p.AdaptiveCompactness {
		kn.scale = make([]float64, len(kn.centers))
		for i := range kn.scale {
			kn.scale[i] = kn.p.Compactness * kn.p.Compactness
		}
	}
}

func (kn *slicKernel) assign(int, int) (calcs, skipped, saved int64, err error) {
	resetDist(kn.dist)
	return kn.sweep(0, kn.scale), 0, 0, nil
}

func (kn *slicKernel) update(int) (float64, int) {
	return slic.UpdateCenters(kn.lab, kn.labels, kn.centers), len(kn.centers)
}

func (kn *slicKernel) finish() []slic.Center { return kn.centers }
