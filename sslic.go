// Package sslic is the public API of the S-SLIC reproduction: superpixel
// segmentation with the SLIC algorithm of Achanta et al. and the
// Subsampled SLIC (S-SLIC) variant of Hong et al. (DAC 2016), plus the
// quality metrics and the calibrated accelerator model from the paper's
// evaluation.
//
// Quick start:
//
//	seg, err := sslic.Segment(img, sslic.DefaultOptions(900))
//	out := seg.Overlay(img, color.RGBA{R: 255, A: 255})
//
// The heavy lifting lives in internal packages (internal/slic,
// internal/sslic, internal/hw, ...); this package adapts them to standard
// library image types.
package sslic

import (
	"fmt"
	"image"
	"image/color"
	"math"
	"slices"

	"sslic/internal/imgio"
	"sslic/internal/slic"
	islic "sslic/internal/sslic"
)

// Method selects the segmentation algorithm.
type Method int

const (
	// SSLICPPA is Subsampled SLIC with the pixel perspective architecture
	// — the paper's contribution and the default.
	SSLICPPA Method = iota
	// SSLICCPA is Subsampled SLIC with the center perspective
	// architecture.
	SSLICCPA
	// SLIC is the original windowed algorithm of Achanta et al.
	SLIC
)

// String names the method.
func (m Method) String() string {
	switch m {
	case SSLICCPA:
		return "S-SLIC/CPA"
	case SLIC:
		return "SLIC"
	default:
		return "S-SLIC/PPA"
	}
}

// Datapath selects the arithmetic of the S-SLIC PPA hot loop. There are
// three kinds: Float64, the reference; Fixed, the paper's integer LUT
// datapath as the segmentation service serves it (8-bit Lab codes from
// the gamma and cube-root LUTs, exact integer distances); and Coded(w),
// that datapath at the reduced precision of §6.1's bit-width
// exploration. Each value has one name, which String writes and
// ParseDatapath reads: float64, fixed, coded4 … coded10.
type Datapath = islic.DatapathKind

// The datapaths without a code width.
const (
	Float64 = islic.Float64
	Fixed   = islic.Fixed
)

// Coded returns the fixed datapath at code width bits, 4 to 10 (8 is
// the hardware's choice): colour codes and saturating distance codes of
// that width. Segment rejects any other width.
func Coded(bits int) Datapath { return islic.Coded(bits) }

// ParseDatapath reads a datapath's name: float64, fixed, or coded4 to
// coded10.
func ParseDatapath(s string) (Datapath, error) { return islic.ParseDatapath(s) }

// Options configure Segment. Use DefaultOptions and adjust.
type Options struct {
	// K is the requested superpixel count.
	K int
	// Method selects the algorithm (default S-SLIC with PPA).
	Method Method
	// Compactness is the m factor of the SLIC distance (Equation 5);
	// typical values are 1-40, default 10.
	Compactness float64
	// Iterations is the number of full-image-equivalent iterations
	// (default 10).
	Iterations int
	// SubsampleRatio is the S-SLIC pixel subsampling ratio: 1 disables
	// subsampling, 0.5 and 0.25 are the paper's variants. Ignored for
	// Method == SLIC.
	SubsampleRatio float64
	// Datapath selects the arithmetic of the S-SLIC PPA hot loop; the
	// zero value is Float64, the reference. Every other datapath runs
	// S-SLIC PPA only.
	Datapath Datapath
	// Preemptive composes the Preemptive-SLIC per-cluster early halt with
	// subsampling (paper §8's suggested combination).
	Preemptive bool
	// TileWorkers parallelizes the S-SLIC cluster-update pass across
	// goroutines, partitioning each frame into row bands: 0 or 1 serial,
	// n > 1 that many workers, -1 all CPUs. Labels are deterministic per
	// worker count; on the fixed datapath the whole result is
	// bit-identical for every worker count.
	TileWorkers int
	// AdaptiveCompactness enables the SLICO variant (parameter-free
	// per-cluster compactness normalization). Supported for Method SLIC.
	AdaptiveCompactness bool
	// WarmStart seeds the superpixel centers from a previous
	// segmentation of a same-sized frame — the temporal-coherence path
	// for video, where a couple of iterations suffice after the first
	// frame. Supported for the PPA method; both runs must use the same
	// image size and K.
	WarmStart *Segmentation
}

// DefaultOptions returns the paper's evaluation settings for k
// superpixels: S-SLIC(0.5) on the PPA with m=10 and 10 iterations.
func DefaultOptions(k int) Options {
	return Options{
		K:              k,
		Method:         SSLICPPA,
		Compactness:    10,
		Iterations:     10,
		SubsampleRatio: 0.5,
	}
}

// Segmentation is the result of Segment: a dense label per pixel plus
// the run's statistics.
type Segmentation struct {
	// W, H are the image dimensions.
	W, H int
	// Labels holds one superpixel index per pixel, row-major, in
	// [0, NumSegments).
	Labels []int32
	// NumSegments is the number of distinct superpixels.
	NumSegments int
	// Iterations and DistanceCalcs summarize the work performed.
	Iterations    int
	DistanceCalcs int64
	// Residuals records the mean per-center movement after every pass,
	// the convergence signal of Figure 1's termination test.
	Residuals []float64

	lm      *imgio.LabelMap
	centers []slic.Center
}

// Segment computes a superpixel segmentation of img.
func Segment(img image.Image, opt Options) (*Segmentation, error) {
	if img == nil {
		return nil, fmt.Errorf("sslic: nil image")
	}
	// Checked here rather than left to the segmenter: a WarmStart built
	// by FromLabels has no centers and would otherwise run cold.
	if opt.WarmStart != nil && opt.Method != SSLICPPA {
		return nil, fmt.Errorf("sslic: warm start requires the S-SLIC PPA method")
	}
	p := islic.DefaultParams(opt.K, ratioOrDefault(opt.SubsampleRatio))
	switch opt.Method {
	case SSLICCPA:
		p.Arch = islic.CPA
	case SLIC:
		p.Arch, p.SubsampleRatio = islic.SLIC, 1
	}
	if opt.Compactness > 0 {
		p.Compactness = opt.Compactness
	}
	if opt.Iterations > 0 {
		p.FullIters = opt.Iterations
	}
	p.Datapath = opt.Datapath
	p.AdaptiveCompactness = opt.AdaptiveCompactness
	p.Preemptive = opt.Preemptive
	p.TileWorkers = opt.TileWorkers
	if opt.WarmStart != nil {
		p.InitialCenters = opt.WarmStart.centers
	}
	r, err := islic.Segment(imgio.FromGoImage(img), p)
	if err != nil {
		return nil, err
	}
	return wrap(r.Labels, r.Centers, r.Stats.Iterations, r.Stats.DistanceCalcs, r.Stats.MoveHistory), nil
}

func ratioOrDefault(r float64) float64 {
	if r == 0 {
		return 0.5
	}
	return r
}

func wrap(lm *imgio.LabelMap, centers []slic.Center, iters int, calcs int64, residuals []float64) *Segmentation {
	return &Segmentation{
		W:             lm.W,
		H:             lm.H,
		Labels:        lm.Labels,
		NumSegments:   lm.NumRegions(),
		Iterations:    iters,
		DistanceCalcs: calcs,
		Residuals:     residuals,
		lm:            lm,
		centers:       centers,
	}
}

// Label returns the superpixel index of pixel (x, y).
func (s *Segmentation) Label(x, y int) int32 { return s.lm.At(x, y) }

// BoundaryMask returns a W*H mask marking pixels that touch a different
// superpixel.
func (s *Segmentation) BoundaryMask() []bool { return s.lm.BoundaryMask() }

// Overlay draws the superpixel boundaries over img in the given color.
func (s *Segmentation) Overlay(img image.Image, c color.RGBA) *image.RGBA {
	im := imgio.FromGoImage(img)
	return imgio.Overlay(im, s.lm, c.R, c.G, c.B).ToGoImage()
}

// MeanColor renders every superpixel filled with its mean color — the
// abstraction downstream vision stages consume.
func (s *Segmentation) MeanColor(img image.Image) *image.RGBA {
	im := imgio.FromGoImage(img)
	return imgio.MeanColor(im, s.lm).ToGoImage()
}

// ColorizeLabels renders each superpixel in a deterministic pseudo-random
// color for inspection.
func (s *Segmentation) ColorizeLabels() *image.RGBA {
	return imgio.LabelColors(s.lm).ToGoImage()
}

// RegionSizes returns the pixel count of every superpixel.
func (s *Segmentation) RegionSizes() map[int32]int { return s.lm.RegionSizes() }

// AdjacencyGraph returns, for every superpixel, the sorted set of
// neighboring superpixels (4-connectivity) — the region adjacency graph
// that segmentation-based vision pipelines build on.
func (s *Segmentation) AdjacencyGraph() map[int32][]int32 {
	adj := make(map[int32]map[int32]struct{})
	touch := func(a, b int32) {
		if a == b {
			return
		}
		if adj[a] == nil {
			adj[a] = make(map[int32]struct{})
		}
		adj[a][b] = struct{}{}
	}
	for y := 0; y < s.H; y++ {
		for x := 0; x < s.W; x++ {
			v := s.lm.At(x, y)
			if x+1 < s.W {
				n := s.lm.At(x+1, y)
				touch(v, n)
				touch(n, v)
			}
			if y+1 < s.H {
				n := s.lm.At(x, y+1)
				touch(v, n)
				touch(n, v)
			}
		}
	}
	out := make(map[int32][]int32, len(adj))
	for v, set := range adj {
		list := make([]int32, 0, len(set))
		for n := range set {
			list = append(list, n)
		}
		sortInt32s(list)
		out[v] = list
	}
	return out
}

func sortInt32s(xs []int32) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// FromLabels wraps an existing dense label map (e.g. loaded from disk or
// produced by another tool) as a Segmentation so the metric and
// rendering helpers apply to it. Labels must be non-negative.
func FromLabels(w, h int, labels []int32) (*Segmentation, error) {
	lm, err := newLabelMap(w, h, labels)
	if err != nil {
		return nil, err
	}
	for i, v := range lm.Labels {
		if v < 0 {
			return nil, fmt.Errorf("sslic: negative label at pixel %d", i)
		}
	}
	return wrap(lm, nil, 0, 0, nil), nil
}

// newLabelMap copies a row-major label slice into a w×h label map. It
// rejects dimensions a label map cannot hold — w or h below 1, or a
// pixel count that overflows int — and a slice of any other length.
func newLabelMap(w, h int, labels []int32) (*imgio.LabelMap, error) {
	if w <= 0 || h <= 0 || w > math.MaxInt/h {
		return nil, fmt.Errorf("sslic: invalid dimensions %dx%d", w, h)
	}
	if len(labels) != w*h {
		return nil, fmt.Errorf("sslic: %d labels for %dx%d image", len(labels), w, h)
	}
	return &imgio.LabelMap{W: w, H: h, Labels: slices.Clone(labels)}, nil
}
