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
	lab, labels, centers, dist := kn.lab, kn.labels, kn.centers, kn.dist
	s, k, invS2 := kn.s, kn.k, kn.invS2
	w, h := lab.W, lab.H

	// Distance decay: because centers move between passes, retained
	// minima go slightly stale; original SLIC resets the buffer every
	// iteration. Reset at the start of each full round so every pixel
	// is re-contested once per full iteration.
	if subset == 0 {
		for i := range dist {
			dist[i] = math.Inf(1)
		}
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
				d := slic.Distance5(lab.L[i], lab.A[i], lab.B[i], float64(x), float64(y), c, invS2)
				calcs++
				if d < dist[i] {
					dist[i] = d
					labels.Labels[i] = int32(ci)
				}
			}
		}
	}
	return calcs, 0, 0, nil
}

// update recomputes the pass's subset of centers from their current
// members inside their (enlarged) windows.
func (kn *cpaKernel) update(subset int) (float64, int) {
	return updateCPASubset(kn.lab, kn.labels, kn.centers, subset, kn.k, kn.s), len(kn.centers) / kn.k
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
