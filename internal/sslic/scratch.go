package sslic

import (
	"math"

	"sslic/internal/imgio"
	"sslic/internal/slic"
)

// Scratch is the reusable working memory of a Segment run: the colour
// planes, the largest per-frame buffer the CPU pipeline otherwise
// reallocates every frame (three float64 Lab planes, 24 bytes/pixel, on
// the float64 datapath; one packed uint32 Lab code word, 4 bytes/pixel,
// on the fixed one), the gradient map, the preemption and accumulator
// slices, the fixed kernel's per-band lane files and x-term tables,
// the connectivity pass's row runs, the static tiling and the
// quality-scan counts. Give each worker its own Scratch and set
// Params.Scratch to it across frames; a Scratch must never be shared by
// concurrent runs. Buffers grow to the largest frame seen and are fully
// overwritten each run, so one Scratch serves streams of changing
// geometry. The zero value is ready to use.
type Scratch struct {
	lab  slic.LabImage
	grad []float64

	settled []bool
	dist    []float64 // CPA persistent minimum-distance buffer
	counts  []int32   // quality-scan per-cluster pixel counts

	conn   slic.Connectivity // the connectivity pass's row runs
	tiling *Tiling           // the last run's static tiling

	// Fixed-datapath state: the packed Lab code words, the int64
	// code-space gradient, the integer register file, and each band's
	// working memory.
	fxCodes   []uint32
	fxGrad    []int64
	fxCenters []fxCenter
	fxBands   []fxBand

	pass   passScratch[float64]
	fxPass passScratch[int64]

	// The kernels live here too, rebuilt at the start of every run, so
	// a run with a Scratch allocates no kernel of its own.
	ppa  ppaKernel
	fx   fxKernel
	cpa  cpaKernel
	slic slicKernel
}

// NewScratch returns an empty Scratch; buffers are grown on first use.
func NewScratch() *Scratch { return &Scratch{} }

// grow returns *buf resliced to length n, reallocating it only when its
// capacity is short. Contents are unspecified: callers overwrite or
// clear them.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// initCenters runs grid initialization with the scratch gradient
// buffer. The centers slice is always freshly allocated: Result.Centers
// escapes to the caller (warm-start states hold it across frames), so
// it must not alias reused memory.
func (s *Scratch) initCenters(lab *slic.LabImage, k int, perturb bool) []slic.Center {
	centers, grad := slic.InitCentersInto(lab, k, perturb, s.grad)
	s.grad = grad
	return centers
}

// tilingFor returns the static tiling of a w×h frame at k requested
// superpixels: the previous run's while the grid is the same, since a
// Tiling is never written once built.
func (s *Scratch) tilingFor(w, h, k int) *Tiling {
	nx, ny := slic.CenterGridDims(w, h, k)
	if t := s.tiling; t == nil || t.W != w || t.H != h || t.NX != nx || t.NY != ny {
		s.tiling = NewTiling(w, h, k)
	}
	return s.tiling
}

// settledFor returns the preemption flags of n centers, all false.
func (s *Scratch) settledFor(n int) []bool {
	b := grow(&s.settled, n)
	clear(b)
	return b
}

// qualityScan fills the Stats quality proxies from the final labels in
// one deterministic O(N) pass: per-cluster pixel counts (empty-cluster
// count and size coefficient of variation) of labels 0 to k−1, and the
// 4-neighbor boundary pixel count. Labels are identical across worker
// counts on both datapaths, so every derived value is too — the
// property the live quality proxies inherit and the determinism tests
// pin. The counts buffer comes from the scratch, keeping the
// steady-state request path allocation-free.
// With connectivity on, labels 0 to k−1 are the first k superpixels,
// not the k clusters (see Stats.EmptyClusters).
func qualityScan(labels *imgio.LabelMap, k int, scr *Scratch, st *Stats) {
	counts := grow(&scr.counts, k)
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
	empty := 0
	var sum, sum2 float64
	for _, c := range counts {
		if c == 0 {
			empty++
		}
		f := float64(c)
		sum += f
		sum2 += f * f
	}
	st.EmptyClusters = empty
	st.BoundaryPixels = boundary
	if n := float64(len(counts)); n > 0 && sum > 0 {
		mean := sum / n
		variance := sum2/n - mean*mean
		if variance < 0 {
			variance = 0
		}
		st.ClusterSizeCV = math.Sqrt(variance) / mean
	}
}
