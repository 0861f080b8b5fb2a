// Package slic implements the reference SLIC superpixel algorithm of
// Achanta et al. (TPAMI 2012) as described in §2 of the paper: CIELAB
// conversion, grid initialization with gradient-based perturbation,
// iterative assignment within a 2S×2S window per center, center updates
// until the residual drops below a threshold, and a final connectivity
// enforcement pass.
//
// The package also exports the primitives shared with the subsampled
// variant in internal/sslic: Lab image planes, center bookkeeping,
// the distance function of Equation 5 and the connectivity pass.
package slic

import (
	"fmt"
	"math"
	"time"

	"sslic/internal/colorspace"
	"sslic/internal/imgio"
)

// Params configures a SLIC run. The zero value is not valid; use
// DefaultParams and adjust.
type Params struct {
	// K is the requested number of superpixels. The effective count is
	// the nearest regular grid (paper: S = sqrt(N/K) spacing).
	K int
	// Compactness is m in Equation 5, balancing color vs spatial distance.
	// The paper states m is generally set between 1 and 40.
	Compactness float64
	// MaxIters bounds the number of full assignment/update iterations.
	MaxIters int
	// Threshold stops iterating when the summed center movement (L1, in
	// pixels) per center falls below it. Zero keeps iterating to MaxIters.
	Threshold float64
	// PerturbCenters moves each initial center to the lowest-gradient
	// position in its 3×3 neighborhood (paper §2).
	PerturbCenters bool
	// EnforceConnectivity runs the final stray-pixel reassignment pass.
	EnforceConnectivity bool
	// MinRegionDivisor sets the minimum connected-region size to
	// S*S/MinRegionDivisor during connectivity enforcement (default 4).
	MinRegionDivisor int
	// AdaptiveCompactness enables the SLICO variant of the original
	// authors' release: instead of one global m, every superpixel
	// normalizes its color distance by the largest color distance
	// observed in the cluster during the previous iteration, making the
	// compactness parameter-free and the superpixel shapes uniform
	// across textured and smooth regions.
	AdaptiveCompactness bool
}

// DefaultParams returns the parameter set used throughout the paper's
// evaluation: m=10, 10 iterations, gradient perturbation and
// connectivity enforcement on.
func DefaultParams(k int) Params {
	return Params{
		K:                   k,
		Compactness:         10,
		MaxIters:            10,
		Threshold:           0,
		PerturbCenters:      true,
		EnforceConnectivity: true,
		MinRegionDivisor:    4,
	}
}

// Validate reports whether the parameters are usable for a w×h image.
func (p Params) Validate(w, h int) error {
	if w <= 0 || h <= 0 {
		return fmt.Errorf("slic: invalid image size %dx%d", w, h)
	}
	if p.K < 1 {
		return fmt.Errorf("slic: K = %d, want >= 1", p.K)
	}
	if p.K > w*h {
		return fmt.Errorf("slic: K = %d exceeds pixel count %d", p.K, w*h)
	}
	if p.Compactness <= 0 {
		return fmt.Errorf("slic: compactness %g, want > 0", p.Compactness)
	}
	if p.MaxIters < 1 {
		return fmt.Errorf("slic: MaxIters = %d, want >= 1", p.MaxIters)
	}
	return nil
}

// Center is the 5-dimensional superpixel descriptor [L, a, b, x, y] of §2.
type Center struct {
	L, A, B float64
	X, Y    float64
}

// LabImage holds the CIELAB planes of an image in float64.
type LabImage struct {
	W, H    int
	L, A, B []float64
}

// Pixels returns W*H.
func (li *LabImage) Pixels() int { return li.W * li.H }

// Stats accumulates per-phase timings and operation counts, feeding the
// Table 1 breakdown and the Table 2 op-count analysis.
type Stats struct {
	ColorConvTime time.Duration
	InitTime      time.Duration
	AssignTime    time.Duration // distance + min phase
	UpdateTime    time.Duration // center update phase
	OtherTime     time.Duration // connectivity + misc

	DistanceCalcs int64 // number of Equation 5 evaluations
	CenterUpdates int64 // number of center recomputations
	Iterations    int
	Converged     bool
	// MoveHistory records the mean per-center L1 movement after every
	// iteration — the residual the convergence test watches (Figure 1's
	// "center movement > threshold?" loop).
	MoveHistory []float64
}

// Total returns the summed phase time.
func (s Stats) Total() time.Duration {
	return s.ColorConvTime + s.InitTime + s.AssignTime + s.UpdateTime + s.OtherTime
}

// Result is the output of a segmentation run.
type Result struct {
	Labels  *imgio.LabelMap
	Centers []Center
	Stats   Stats
}

// GridInterval returns S = sqrt(N/K), the center grid spacing of §2.
func GridInterval(w, h, k int) float64 {
	return math.Sqrt(float64(w*h) / float64(k))
}

// ToLab converts an 8-bit RGB image to float64 CIELAB planes through the
// reference Equations 1-4.
func ToLab(im *imgio.Image) *LabImage {
	l, a, b := colorspace.ConvertImageToLab(im.C0, im.C1, im.C2)
	return &LabImage{W: im.W, H: im.H, L: l, A: a, B: b}
}

// ToLabInto is ToLab writing into dst, growing its planes only when the
// frame outgrows their capacity. A stream of same-geometry frames
// therefore converts with zero allocations after the first — the planes
// are the largest per-frame buffers (24 bytes/pixel) the CPU pipeline
// otherwise reallocates.
func ToLabInto(dst *LabImage, im *imgio.Image) {
	n := im.W * im.H
	dst.W, dst.H = im.W, im.H
	dst.L = growFloats(dst.L, n)
	dst.A = growFloats(dst.A, n)
	dst.B = growFloats(dst.B, n)
	colorspace.ConvertImageToLabInto(im.C0, im.C1, im.C2, dst.L, dst.A, dst.B)
}

// growFloats returns s resliced to length n, reallocating only when the
// capacity is insufficient.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// Segment runs the full SLIC pipeline of Figure 1a on an RGB image.
func Segment(im *imgio.Image, p Params) (*Result, error) {
	if err := p.Validate(im.W, im.H); err != nil {
		return nil, err
	}
	var st Stats

	t0 := time.Now()
	lab := ToLab(im)
	st.ColorConvTime = time.Since(t0)

	t0 = time.Now()
	centers := InitCenters(lab, p.K, p.PerturbCenters)
	st.InitTime = time.Since(t0)

	labels := imgio.NewLabelMap(im.W, im.H)
	s := GridInterval(im.W, im.H, p.K)
	invS2 := p.Compactness * p.Compactness / (s * s)

	dist := make([]float64, lab.Pixels())
	// SLICO state: per-center maximum squared color distance from the
	// previous iteration, seeded with m².
	var maxDc2 []float64
	if p.AdaptiveCompactness {
		maxDc2 = make([]float64, len(centers))
		for i := range maxDc2 {
			maxDc2[i] = p.Compactness * p.Compactness
		}
	}
	for it := 0; it < p.MaxIters; it++ {
		for i := range dist {
			dist[i] = math.Inf(1)
		}
		t0 = time.Now()
		st.DistanceCalcs += assignWindowed(lab, centers, labels, dist, s, invS2, maxDc2)
		st.AssignTime += time.Since(t0)

		t0 = time.Now()
		move := UpdateCenters(lab, labels, centers)
		st.CenterUpdates += int64(len(centers))
		st.UpdateTime += time.Since(t0)
		st.Iterations = it + 1
		st.MoveHistory = append(st.MoveHistory, move/float64(len(centers)))

		if p.Threshold > 0 && move/float64(len(centers)) < p.Threshold {
			st.Converged = true
			break
		}
	}

	t0 = time.Now()
	if p.EnforceConnectivity {
		minSize := int(s*s) / max(1, p.MinRegionDivisor)
		EnforceConnectivity(labels, minSize)
	}
	st.OtherTime = time.Since(t0)

	return &Result{Labels: labels, Centers: centers, Stats: st}, nil
}

// assignWindowed performs one CPA-style assignment sweep: for each center,
// every pixel inside the 2S×2S window centered on it is tested against
// Equation 5 and claims the center if the distance beats the pixel's
// current minimum. Returns the number of distance evaluations.
func assignWindowed(lab *LabImage, centers []Center, labels *imgio.LabelMap, dist []float64, s, invS2 float64, maxDc2 []float64) int64 {
	var calcs int64
	w, h := lab.W, lab.H
	invS2spatial := 1 / (s * s)
	var newMax []float64
	if maxDc2 != nil {
		newMax = make([]float64, len(centers))
	}
	for ci := range centers {
		c := &centers[ci]
		x0 := max(0, int(c.X-s))
		x1 := min(w-1, int(c.X+s))
		y0 := max(0, int(c.Y-s))
		y1 := min(h-1, int(c.Y+s))
		for y := y0; y <= y1; y++ {
			row := y * w
			for x := x0; x <= x1; x++ {
				i := row + x
				var d float64
				var dc2 float64
				if maxDc2 != nil {
					var ds2 float64
					dc2, ds2 = DistanceParts(lab.L[i], lab.A[i], lab.B[i], float64(x), float64(y), c)
					// SLICO: normalize color by the cluster's own scale
					// and space by S².
					d = dc2/maxDc2[ci] + ds2*invS2spatial
				} else {
					d = Distance5(lab.L[i], lab.A[i], lab.B[i], float64(x), float64(y), c, invS2)
				}
				calcs++
				if d < dist[i] {
					dist[i] = d
					labels.Labels[i] = int32(ci)
					if newMax != nil && dc2 > newMax[ci] {
						newMax[ci] = dc2
					}
				}
			}
		}
	}
	if maxDc2 != nil {
		for i, v := range newMax {
			if v > 1 { // keep a floor so the normalization never explodes
				maxDc2[i] = v
			}
		}
	}
	return calcs
}

// DistanceParts returns the squared color and spatial components of
// Equation 5 separately, for compactness-normalizing variants (SLICO).
func DistanceParts(l, a, b, x, y float64, c *Center) (dc2, ds2 float64) {
	dl := l - c.L
	da := a - c.A
	db := b - c.B
	dx := x - c.X
	dy := y - c.Y
	return dl*dl + da*da + db*db, dx*dx + dy*dy
}

// Distance5 evaluates the squared form of Equation 5:
//
//	d² = dc² + m²·ds²/S²
//
// where dc is the CIELAB Euclidean distance between the pixel and the
// center and ds the spatial Euclidean distance. invS2 carries the
// precomputed m²/S². Comparing d² instead of d is monotone-equivalent and
// is what the hardware does — it avoids the square root entirely.
func Distance5(l, a, b, x, y float64, c *Center, invS2 float64) float64 {
	dl := l - c.L
	da := a - c.A
	db := b - c.B
	dx := x - c.X
	dy := y - c.Y
	return dl*dl + da*da + db*db + (dx*dx+dy*dy)*invS2
}

// UpdateCenters recomputes every center as the mean of its member pixels
// and returns the total L1 movement in the (x, y) plane — the residual the
// convergence test uses. Centers that lost all members keep their
// position.
func UpdateCenters(lab *LabImage, labels *imgio.LabelMap, centers []Center) float64 {
	type sigma struct {
		l, a, b, x, y float64
		n             int
	}
	acc := make([]sigma, len(centers))
	w := lab.W
	for i, lbl := range labels.Labels {
		if lbl < 0 {
			continue
		}
		sg := &acc[lbl]
		sg.l += lab.L[i]
		sg.a += lab.A[i]
		sg.b += lab.B[i]
		sg.x += float64(i % w)
		sg.y += float64(i / w)
		sg.n++
	}
	var move float64
	for ci := range centers {
		sg := acc[ci]
		if sg.n == 0 {
			continue
		}
		n := float64(sg.n)
		c := &centers[ci]
		nx, ny := sg.x/n, sg.y/n
		move += math.Abs(nx-c.X) + math.Abs(ny-c.Y)
		c.L, c.A, c.B, c.X, c.Y = sg.l/n, sg.a/n, sg.b/n, nx, ny
	}
	return move
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
