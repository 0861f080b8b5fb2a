// Package slic holds the primitives of the SLIC superpixel algorithm of
// Achanta et al. (TPAMI 2012), §2 of the paper, that every segmenter in
// internal/sslic shares: CIELAB image planes, grid seeding with the
// gradient-based perturbation, the distance of Equation 5, the center
// update, the final connectivity pass and the per-phase Stats. The
// SLIC, S-SLIC PPA and CPA kernels themselves run on internal/sslic's
// pass driver.
package slic

import (
	"math"
	"time"

	"sslic/internal/colorspace"
	"sslic/internal/imgio"
)

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
