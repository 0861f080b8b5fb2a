package quality

import (
	"math"
	"sync"

	"sslic/internal/imgio"
)

// LabelChurn counts pixels whose label differs between cur and prev —
// the same comparison the delta wire format encodes as skip/run
// records, evaluated without allocating. ok is false (and changed 0)
// when the maps are missing or their geometries disagree, which is
// exactly when the delta encoder would fall back to a full keyframe.
func LabelChurn(cur, prev *imgio.LabelMap) (changed int, ok bool) {
	if cur == nil || prev == nil || cur.W != prev.W || cur.H != prev.H {
		return 0, false
	}
	a, b := cur.Labels, prev.Labels
	if len(a) != len(b) {
		return 0, false
	}
	for i, v := range a {
		if v != b[i] {
			changed++
		}
	}
	return changed, true
}

// LabelScan is what one scan of a frame's final labels finds at k
// clusters, k the effective K (the run's center count): the cluster
// proxies of under-segmentation collapse and the boundary count behind
// boundary density, the live stand-in for the paper's boundary recall.
//
// Both cluster proxies read labels 0 to k−1. With connectivity
// enforced those number the final superpixels in scan order, not the
// clusters, so EmptyClusters is k minus the superpixel count, floored
// at 0. A frame can end with more superpixels than k, and the proxies
// leave the ones past the k-th out.
type LabelScan struct {
	// EmptyClusters counts the labels 0 to k−1 that no pixel carries.
	EmptyClusters int
	// ClusterSizeCV is the coefficient of variation (stddev/mean) of
	// the pixel counts of labels 0 to k−1; 0 when none carries a pixel.
	ClusterSizeCV float64
	// BoundaryPixels counts pixels with at least one 4-neighbour of a
	// different label, out of the map's Pixels.
	BoundaryPixels, Pixels int
}

// BoundaryDensity is the fraction of the map's pixels that are
// boundary pixels.
func (s LabelScan) BoundaryDensity() float64 {
	return float64(s.BoundaryPixels) / float64(s.Pixels)
}

// countsPool holds ScanLabels' per-label counts, so a scan allocates
// nothing once warm. It stores pointers: a slice put by value would be
// boxed on every Put.
var countsPool = sync.Pool{New: func() any { return new([]int32) }}

// ScanLabels scans labels once, in O(N): the pixel counts of labels 0
// to k−1 (the empty-cluster count and the size coefficient of
// variation) and the 4-neighbour boundary pixels. It is a function of
// the labels and k alone, so it is as deterministic as the labels are:
// both datapaths give identical labels for every worker count, and so
// identical proxies.
func ScanLabels(labels *imgio.LabelMap, k int) LabelScan {
	buf := countsPool.Get().(*[]int32)
	defer countsPool.Put(buf)
	if cap(*buf) < k {
		*buf = make([]int32, k)
	}
	counts := (*buf)[:k]
	clear(counts)
	w, h := labels.W, labels.H
	lb := labels.Labels
	boundary := 0
	for y := 0; y < h; y++ {
		row := lb[y*w : (y+1)*w]
		// A missing row above or below compares equal to the row itself.
		up, down := row, row
		if y > 0 {
			up = lb[(y-1)*w : y*w]
		}
		if y < h-1 {
			down = lb[(y+1)*w : (y+2)*w]
		}
		// Walk the row by runs of equal labels: one count add per run,
		// and only the up and down tests per pixel, since a run's left
		// and right neighbours differ only at its ends.
		for x0 := 0; x0 < w; {
			v, x1 := row[x0], x0+1
			for x1 < w && row[x1] == v {
				x1++
			}
			if uint(v) < uint(len(counts)) {
				counts[v] += int32(x1 - x0)
			}
			for x := x0; x < x1; x++ {
				if (v^up[x])|(v^down[x]) != 0 {
					boundary++
				}
			}
			// The run's end pixels inside the row are boundary pixels
			// too; count those the vertical test passed over, once each.
			if x0 > 0 && up[x0] == v && down[x0] == v {
				boundary++
			}
			if last := x1 - 1; x1 < w && (last > x0 || x0 == 0) && up[last] == v && down[last] == v {
				boundary++
			}
			x0 = x1
		}
	}
	s := LabelScan{BoundaryPixels: boundary, Pixels: w * h}
	var sum, sum2 float64
	for _, c := range counts {
		if c == 0 {
			s.EmptyClusters++
		}
		f := float64(c)
		sum += f
		sum2 += f * f
	}
	if n := float64(len(counts)); n > 0 && sum > 0 {
		mean := sum / n
		variance := sum2/n - mean*mean
		if variance < 0 {
			variance = 0
		}
		s.ClusterSizeCV = math.Sqrt(variance) / mean
	}
	return s
}

// FinalResidual returns the last entry of a run's residual history
// (sslic.Stats.MoveHistory, one mean per-center movement per subset
// pass): the residual the convergence proxies read, 0 before any pass
// ran.
func FinalResidual(history []float64) float64 {
	if n := len(history); n > 0 {
		return history[n-1]
	}
	return 0
}

// ResidualDecay returns a residual history's final residual over its
// first — the convergence rate across the run's subset passes. 1 means
// no improvement; values near 0 mean the centers settled. It returns 1
// when fewer than two passes ran or the first residual is 0.
func ResidualDecay(history []float64) float64 {
	if len(history) < 2 || history[0] <= 0 {
		return 1
	}
	return FinalResidual(history) / history[0]
}
