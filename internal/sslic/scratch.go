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
// slices, the fixed kernel's per-band x-term tables and winner rows,
// and the quality-scan counts. Give each worker its own Scratch and set
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

	// Fixed-datapath state: the packed Lab code words, the int64
	// code-space gradient, the integer register file, and each band's
	// x-term table and row of winning lanes.
	fxCodes   []uint32
	fxGrad    []int64
	fxCenters []fxCenter
	fxXTerms  [][]int64
	fxWinners [][]uint8

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

// settledFor returns the preemption flags of n centers, all false.
func (s *Scratch) settledFor(n int) []bool {
	b := grow(&s.settled, n)
	clear(b)
	return b
}

// qualityScan fills the Stats quality proxies from the final labels in
// one deterministic O(N) pass: per-cluster pixel counts (empty-cluster
// count and size coefficient of variation) and the 4-neighbor boundary
// pixel count. Labels are identical across worker counts on both
// datapaths, so every derived value is too — the property the live
// quality proxies inherit and the determinism tests pin. The counts
// buffer comes from the scratch, keeping the steady-state request path
// allocation-free.
func qualityScan(labels *imgio.LabelMap, k int, scr *Scratch, st *Stats) {
	counts := grow(&scr.counts, k)
	clear(counts)
	w, h := labels.W, labels.H
	lb := labels.Labels
	boundary := 0
	for y := 0; y < h; y++ {
		row := y * w
		for x := 0; x < w; x++ {
			i := row + x
			v := lb[i]
			if v >= 0 && int(v) < len(counts) {
				counts[v]++
			}
			if (x > 0 && lb[i-1] != v) || (x < w-1 && lb[i+1] != v) ||
				(y > 0 && lb[i-w] != v) || (y < h-1 && lb[i+w] != v) {
				boundary++
			}
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
