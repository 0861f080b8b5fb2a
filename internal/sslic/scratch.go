package sslic

import "sslic/internal/slic"

// Scratch is the reusable working memory of a Segment run: the colour
// planes, the largest per-frame buffer the CPU pipeline otherwise
// reallocates every frame (three float64 Lab planes, 24 bytes/pixel, on
// the float64 datapath; one packed uint32 Lab code word, 4 bytes/pixel,
// on the fixed one), the gradient map, the preemption and accumulator
// slices, the fixed kernel's per-band lane files and x-term tables,
// the connectivity pass's row runs and the static tiling. Give each
// worker its own Scratch and set Params.Scratch to it across frames; a
// Scratch must never be shared by concurrent runs. Buffers grow to the
// largest frame seen and are fully overwritten each run, so one
// Scratch serves streams of changing geometry. The zero value is ready
// to use.
type Scratch struct {
	lab  slic.LabImage
	grad []float64

	settled []bool
	dist    []float64 // CPA persistent minimum-distance buffer

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
