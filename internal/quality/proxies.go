package quality

import (
	"math"
	"math/bits"
	"sync"

	"sslic/internal/imgio"
	"sslic/internal/simd"
)

// LabelChurn counts pixels whose label differs between cur and prev —
// the same comparison the delta wire format encodes as skip/run
// records, evaluated without allocating: the popcount of the maps'
// not-equal mask (simd.NotEqual), scanCols pixels at a time. ok is
// false (and changed 0) when the maps are missing or their geometries
// disagree, which is exactly when the delta encoder would fall back to
// a full keyframe.
func LabelChurn(cur, prev *imgio.LabelMap) (changed int, ok bool) {
	if cur == nil || prev == nil || cur.W != prev.W || cur.H != prev.H {
		return 0, false
	}
	a, b := cur.Labels, prev.Labels
	if len(a) != len(b) {
		return 0, false
	}
	var mask [scanWords]uint64
	for i := 0; i < len(a); i += scanCols {
		j := min(i+scanCols, len(a))
		simd.NotEqual(mask[:], a[i:j], b[i:j])
		for _, m := range mask[:simd.Words(j-i)] {
			changed += bits.OnesCount64(m)
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

// scanCols is how many columns of a row ScanLabels compares at once,
// and LabelChurn how many pixels: their row masks live on the stack,
// and a wider row is scanned in chunks of this many columns.
const (
	scanCols  = 2048
	scanWords = scanCols / 64
)

// ScanLabels scans labels once, in O(N): the pixel counts of labels 0
// to k−1 (the empty-cluster count and the size coefficient of
// variation) and the 4-neighbour boundary pixels. It is a function of
// the labels and k alone, so it is as deterministic as the labels are:
// both datapaths give identical labels for every worker count, and so
// identical proxies.
//
// Each row is compared three times by simd.NotEqual, 64 pixels to a
// mask word: with itself shifted by one pixel (lr, bit x set where
// pixels x and x+1 differ), with the row above (up) and with the row
// below (down); a missing row compares equal. A pixel is a boundary
// pixel when up | down | lr | lr<<1 has its bit set, and the set bits
// of lr end the row's runs of equal labels, so a run's size is the
// distance between two of them, found by TZCNT.
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
	var lr, up, down [scanWords]uint64
	for y := 0; y < h && w > 0; y++ {
		row := lb[y*w : (y+1)*w]
		above, below := row, row
		if y > 0 {
			above = lb[(y-1)*w : y*w]
		}
		if y < h-1 {
			below = lb[(y+1)*w : (y+2)*w]
		}
		// start is the open run's first column; carry is lr's bit of the
		// column before the word, the left test of the word's bit 0.
		start, carry := 0, uint64(0)
		for c0 := 0; c0 < w; c0 += scanCols {
			c1 := min(c0+scanCols, w)
			nw := simd.Words(c1 - c0)
			// The row's last column has no right neighbour: lr leaves its
			// bit clear, and the word holding it when no other does.
			nlr := min(c1, w-1) - c0
			simd.NotEqual(lr[:], row[c0:c0+nlr], row[c0+1:c0+1+nlr])
			if nlr%64 == 0 && nlr/64 < nw {
				lr[nlr/64] = 0
			}
			simd.NotEqual(up[:], row[c0:c1], above[c0:c1])
			simd.NotEqual(down[:], row[c0:c1], below[c0:c1])
			for j := 0; j < nw; j++ {
				m := lr[j]
				boundary += bits.OnesCount64(up[j] | down[j] | m | m<<1 | carry)
				carry = m >> 63
				for ; m != 0; m &= m - 1 {
					x := c0 + j*64 + bits.TrailingZeros64(m)
					if v := row[x]; uint(v) < uint(len(counts)) {
						counts[v] += int32(x + 1 - start)
					}
					start = x + 1
				}
			}
		}
		if v := row[w-1]; uint(v) < uint(len(counts)) {
			counts[v] += int32(w - start)
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
