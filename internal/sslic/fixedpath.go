package sslic

// The Fixed datapath: the paper's integer hardware arithmetic (§4.3,
// §6.1) substituted for the float64 reference in the PPA hot loop.
//
//   - Color conversion goes through internal/lut's Color Conversion Unit
//     model — the 256-entry sRGB gamma LUT and 8-segment PWL cube root —
//     producing the 8-bit Lab encoding the accelerator scratchpads hold
//     (L scaled to [0,255], a/b offset by +128). No math.Pow or
//     math.Cbrt per pixel.
//   - Distances are evaluated on the 8-bit codes with integer multiplies
//     and shifts. The L channel is re-weighted by (100/255)² in Q0.16 so
//     the code-space distance matches the float path's Lab-unit metric
//     (a/b codes are already 1:1 with Lab units); the spatial term
//     carries m²/S² in Q0.16 against Q8.8 sub-pixel center coordinates.
//   - The Cluster Update Unit's sigma accumulators are plain int64 sums
//     of codes and pixel coordinates. Integer addition is exactly
//     associative, so the per-band partial sums of a tiled pass merge to
//     the serial result bit-for-bit — the property that makes the tiled
//     fixed path byte-identical for every TileWorkers value (the float
//     path only guarantees identical labels; its center coordinates may
//     differ in the last FP bits across worker counts).
//
// The float64 path in sslic.go is the reference oracle; the parity and
// golden tests pin this implementation against it.

import (
	"math"
	"sync"

	"sslic/internal/imgio"
	"sslic/internal/lut"
	"sslic/internal/slic"
)

// Fixed-point formats of the software datapath.
const (
	// coordFrac is the sub-pixel precision of center coordinates (Q8):
	// the Center Update Unit's division keeps 8 fractional bits so
	// convergence is not limited to whole-pixel steps.
	coordFrac = 8
	coordOne  = 1 << coordFrac
	// colorFrac is the sub-code precision of center colors (Q8.8 codes),
	// for the same reason on the color axes.
	colorFrac = 8
	colorOne  = 1 << colorFrac
	// weightFrac is the Q0.16 scale of the distance weights (the L
	// re-weighting and the spatial m²/S² term).
	weightFrac = 16
	// distFrac keeps 4 fractional bits in the accumulated distance so
	// near-minimum candidates are not collapsed into ties by integer
	// truncation.
	distFrac = 4
	// spatShift brings (Q8 dx)² × Q0.16 weight down to Q4 distance units.
	spatShift = 2*coordFrac + weightFrac - distFrac
	// spatSaturated stands in for a spatial term whose exact product
	// would overflow (degenerate compactness/geometry): large enough to
	// dominate any color distance, small enough never to overflow the
	// total. Saturation is what the hardware's bounded registers do.
	spatSaturated = int64(1) << 60
)

// fixedLWeight is (100/255)² in Q0.16: the factor that converts the L
// code difference (L scaled by 255/100) back into Lab units squared.
var fixedLWeight = int64(math.Round(math.Pow(100.0/255, 2) * (1 << weightFrac)))

var (
	fixedConvOnce sync.Once
	fixedConv     *lut.Converter
)

// fixedConverter returns the process-wide Color Conversion Unit model.
// The tables are deterministic, so sharing one converter across all runs
// is safe and keeps the per-run setup free.
func fixedConverter() *lut.Converter {
	fixedConvOnce.Do(func() { fixedConv = lut.MustNewConverter(lut.DefaultSegments) })
	return fixedConv
}

// fxCenter is a superpixel center in the fixed register format: Lab
// codes in Q8.8, coordinates in Q.8 pixels.
type fxCenter struct {
	l, a, b int32
	x, y    int64
}

// fxSigma is the integer accumulator register file of the Cluster Update
// Unit: sums of 8-bit codes and integer pixel coordinates plus the count.
type fxSigma = sigmaOf[int64]

// fxWeights carries the precomputed distance weights of one run.
type fxWeights struct {
	wL    int64 // Q0.16 L-code re-weighting
	wS    int64 // Q0.16 spatial weight m²/S²
	spCap int64 // largest (dx²+dy²) whose product with wS fits int64
}

func newFxWeights(invS2 float64) fxWeights {
	const wSMax = int64(1) << 56
	w := fxWeights{wL: fixedLWeight, wS: wSMax}
	if f := invS2 * (1 << weightFrac); f < float64(wSMax) {
		w.wS = int64(math.Round(f))
	}
	if w.wS > 0 {
		w.spCap = math.MaxInt64 / w.wS
	} else {
		// A vanishing spatial weight (compactness ≪ grid interval) turns
		// every spatial product into 0; the cap just needs to admit any
		// squared offset.
		w.spCap = math.MaxInt64
	}
	return w
}

// convertLabCodes runs the LUT color conversion into int32 planes, the
// width the distance loop multiplies without conversions.
func convertLabCodes(conv *lut.Converter, im *imgio.Image, scr *Scratch) (l, a, b []int32) {
	n := im.Pixels()
	l, a, b = grow(&scr.fxL, n), grow(&scr.fxA, n), grow(&scr.fxB, n)
	for i := 0; i < n; i++ {
		l8, a8, b8 := conv.Convert(im.C0[i], im.C1[i], im.C2[i])
		l[i], a[i], b[i] = int32(l8), int32(a8), int32(b8)
	}
	return l, a, b
}

// initCentersFixed mirrors slic.InitCenters on the integer planes:
// cell-centered grid placement with the optional 3×3 lowest-gradient
// perturbation, evaluated on code-space gradients.
func initCentersFixed(lp, ap, bp []int32, w, h int, tiling *Tiling, perturb bool, centers []fxCenter, scr *Scratch) {
	var grad []int64
	if perturb {
		grad = gradientMapFixed(lp, ap, bp, w, h, scr)
	}
	for gy := 0; gy < tiling.NY; gy++ {
		for gx := 0; gx < tiling.NX; gx++ {
			x := min(w-1, int((float64(gx)+0.5)*float64(w)/float64(tiling.NX)))
			y := min(h-1, int((float64(gy)+0.5)*float64(h)/float64(tiling.NY)))
			if perturb {
				x, y = lowestGradient3x3Fixed(grad, w, h, x, y)
			}
			i := y*w + x
			centers[gy*tiling.NX+gx] = fxCenter{
				l: lp[i] << colorFrac, a: ap[i] << colorFrac, b: bp[i] << colorFrac,
				x: int64(x) << coordFrac, y: int64(y) << coordFrac,
			}
		}
	}
}

// gradientMapFixed is slic.GradientMap on the 8-bit code planes; border
// pixels get MaxInt64 so perturbation never lands on the image edge.
func gradientMapFixed(lp, ap, bp []int32, w, h int, scr *Scratch) []int64 {
	grad := grow(&scr.fxGrad, w*h)
	for i := range grad {
		grad[i] = math.MaxInt64
	}
	sq := func(d int32) int64 { return int64(d) * int64(d) }
	for y := 1; y < h-1; y++ {
		for x := 1; x < w-1; x++ {
			i := y*w + x
			gx := sq(lp[i+1]-lp[i-1]) + sq(ap[i+1]-ap[i-1]) + sq(bp[i+1]-bp[i-1])
			gy := sq(lp[i+w]-lp[i-w]) + sq(ap[i+w]-ap[i-w]) + sq(bp[i+w]-bp[i-w])
			grad[i] = gx + gy
		}
	}
	return grad
}

func lowestGradient3x3Fixed(grad []int64, w, h, x, y int) (int, int) {
	bestX, bestY := x, y
	best := grad[y*w+x]
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			nx, ny := x+dx, y+dy
			if nx < 0 || nx >= w || ny < 0 || ny >= h {
				continue
			}
			if g := grad[ny*w+nx]; g < best {
				best = g
				bestX, bestY = nx, ny
			}
		}
	}
	return bestX, bestY
}

// quantizeCenters converts warm-start float64 centers into the fixed
// register format — the entry point of a warm frame whose previous
// segmentation ran on either datapath.
func quantizeCenters(src []slic.Center, dst []fxCenter, w, h int) {
	for i, c := range src {
		dst[i] = fxCenter{
			l: clampI32(math.Round(c.L*255/100*colorOne), 0, 255*colorOne),
			a: clampI32(math.Round((c.A+128)*colorOne), 0, 255*colorOne),
			b: clampI32(math.Round((c.B+128)*colorOne), 0, 255*colorOne),
			x: clampI64(math.Round(c.X*coordOne), 0, int64(w-1)*coordOne),
			y: clampI64(math.Round(c.Y*coordOne), 0, int64(h-1)*coordOne),
		}
	}
}

// floatCenters converts the fixed registers back to the public
// slic.Center form (Lab units, pixel coordinates).
func floatCenters(fx []fxCenter) []slic.Center {
	out := make([]slic.Center, len(fx))
	for i, c := range fx {
		out[i] = slic.Center{
			L: float64(c.l) / colorOne * 100 / 255,
			A: float64(c.a)/colorOne - 128,
			B: float64(c.b)/colorOne - 128,
			X: float64(c.x) / coordOne,
			Y: float64(c.y) / coordOne,
		}
	}
	return out
}

func clampI32(v float64, lo, hi int32) int32 {
	if !(v > float64(lo)) { // also catches NaN
		return lo
	}
	if v > float64(hi) {
		return hi
	}
	return int32(v)
}

func clampI64(v float64, lo, hi int64) int64 {
	if !(v > float64(lo)) {
		return lo
	}
	if v > float64(hi) {
		return hi
	}
	return int64(v)
}

// fxKernel is the PPA on the fixed datapath: integer state throughout,
// under the same driver and band fan-out as the float64 reference.
type fxKernel struct {
	frame
	lp, ap, bp []int32
	centers    []fxCenter
	acc        []fxSigma
	settled    []bool
	dw         fxWeights
	subset     int // the subset the current pass assigns
}

func (kn *fxKernel) convert(im *imgio.Image) {
	kn.lp, kn.ap, kn.bp = convertLabCodes(fixedConverter(), im, kn.scr)
}

func (kn *fxKernel) seed(tiling *Tiling, labels *imgio.LabelMap) {
	kn.tiling, kn.labels = tiling, labels
	kn.centers = grow(&kn.scr.fxCenters, tiling.NumTiles())
	if kn.p.InitialCenters != nil {
		quantizeCenters(kn.p.InitialCenters, kn.centers, labels.W, labels.H)
	} else {
		initCentersFixed(kn.lp, kn.ap, kn.bp, labels.W, labels.H, tiling, kn.p.PerturbCenters, kn.centers, kn.scr)
	}
	ownCenterFill(labels, tiling, false)
	kn.settled = kn.scr.settledFor(len(kn.centers))
	kn.acc = grow(&kn.scr.fxPass.acc, len(kn.centers))
	kn.dw = newFxWeights(kn.invS2)
}

func (kn *fxKernel) assign(pass, subset int) (calcs, skipped, saved int64, err error) {
	clear(kn.acc)
	kn.subset = subset
	return runBands(&kn.frame, kn, kn.acc, &kn.scr.fxPass, pass)
}

// band is the integer hot loop: per tile, the (up to) 9 candidate
// centers are rounded once into 8-bit code registers and Q8
// coordinates; per subset pixel, up to 9 integer distances and a
// running minimum, then the sigma update — the Cluster Update Unit's
// adders.
//
// The y-component of every candidate's spatial term is constant along a
// row, so it is hoisted into sy[] once per row per tile — an exact
// optimization that keeps the software loop closer to the accelerator's
// throughput without changing a single label. Every candidate is
// evaluated, as the hardware's 9 parallel lanes do, so DistanceCalcs
// matches it and the float64 oracle.
func (kn *fxKernel) band(acc []fxSigma, tyFrom, tyTo int) (calcs, skippedTiles, saved int64) {
	lp, ap, bp, tiling, centers, labels, settled := kn.lp, kn.ap, kn.bp, kn.tiling, kn.centers, kn.labels, kn.settled
	subset, k, scheme, preemptive := kn.subset, kn.k, kn.p.Scheme, kn.p.Preemptive
	w, h := labels.W, labels.H

	wL, wS, spCap := kn.dw.wL, kn.dw.wS, kn.dw.spCap
	var clA, caA, cbA [9]int32
	var cxA, cyA, syA [9]int64
	for ty := tyFrom; ty < tyTo; ty++ {
		y0 := ty * h / tiling.NY
		y1 := (ty + 1) * h / tiling.NY
		for tx := 0; tx < tiling.NX; tx++ {
			cand := tiling.Candidates[ty*tiling.NX+tx]
			x0 := tx * w / tiling.NX
			x1 := (tx + 1) * w / tiling.NX
			if skip, sv := skipTile(preemptive, cand, settled, (x1-x0)*(y1-y0), k); skip {
				skippedTiles++
				saved += sv
				continue
			}

			// Hoist the candidate registers: they are constant over the
			// whole tile, and rounding the Q8.8 center colors to 8-bit
			// codes here is the hardware's register-file read. Slicing to
			// nc elides the bounds checks in the pixel loop.
			nc := len(cand)
			cl, ca, cb := clA[:nc], caA[:nc], cbA[:nc]
			cx, cy, sy := cxA[:nc], cyA[:nc], syA[:nc]
			for j := 0; j < nc; j++ {
				c := &centers[cand[j]]
				cl[j] = (c.l + colorOne/2) >> colorFrac
				ca[j] = (c.a + colorOne/2) >> colorFrac
				cb[j] = (c.b + colorOne/2) >> colorFrac
				cx[j] = c.x
				cy[j] = c.y
			}

			for y := y0; y < y1; y++ {
				row := y * w
				yQ := int64(y) << coordFrac
				startX, stepX, ok := rowStride(scheme, x0, y, h, subset, k)
				if !ok || startX >= x1 {
					continue
				}
				for j := 0; j < nc; j++ {
					dy := yQ - cy[j]
					if sp := dy * dy; sp <= spCap {
						sy[j] = (sp * wS) >> spatShift
					} else {
						sy[j] = spatSaturated
					}
				}
				for x := startX; x < x1; x += stepX {
					if k > 1 && scheme == Hashed && subsetOf(scheme, x, y, w, h, k) != subset {
						continue
					}
					i := row + x
					pl, pa, pb := lp[i], ap[i], bp[i]
					xQ := int64(x) << coordFrac
					best := int32(-1)
					bestD := int64(math.MaxInt64)
					for j := 0; j < nc; j++ {
						dl := pl - cl[j]
						da := pa - ca[j]
						db := pb - cb[j]
						d := sy[j] + (int64(dl*dl)*wL)>>(weightFrac-distFrac) + int64(da*da+db*db)<<distFrac
						dx := xQ - cx[j]
						if sp := dx * dx; sp <= spCap {
							d += (sp * wS) >> spatShift
						} else {
							d += spatSaturated
						}
						if d < bestD {
							bestD = d
							best = cand[j]
						}
					}
					calcs += int64(nc)
					labels.Labels[i] = best
					sg := &acc[best]
					sg.l += int64(pl)
					sg.a += int64(pa)
					sg.b += int64(pb)
					sg.x += int64(x)
					sg.y += int64(y)
					sg.n++
				}
			}
		}
	}
	return calcs, skippedTiles, saved
}

func (kn *fxKernel) update(int) (float64, int) {
	preemptQ8 := int64(math.Round(kn.p.preemptThreshold() * coordOne))
	return applySigmaFixed(kn.centers, kn.acc, kn.settled, preemptQ8, kn.p.Preemptive), len(kn.centers)
}

func (kn *fxKernel) finish() []slic.Center { return floatCenters(kn.centers) }

// applySigmaFixed is the Center Update Unit: one rounded integer
// division per register. Returns the summed L1 center movement in the
// (x, y) plane, in pixels, and updates the settled flags when preemption
// is active.
func applySigmaFixed(centers []fxCenter, acc []fxSigma, settled []bool, preemptQ8 int64, preemptive bool) float64 {
	var moveQ8 int64
	for ci := range centers {
		sg := &acc[ci]
		if sg.n == 0 {
			continue
		}
		n := int64(sg.n)
		c := &centers[ci]
		nx := ((sg.x << coordFrac) + n/2) / n
		ny := ((sg.y << coordFrac) + n/2) / n
		m := absI64(nx-c.x) + absI64(ny-c.y)
		moveQ8 += m
		c.l = int32(((sg.l << colorFrac) + n/2) / n)
		c.a = int32(((sg.a << colorFrac) + n/2) / n)
		c.b = int32(((sg.b << colorFrac) + n/2) / n)
		c.x, c.y = nx, ny
		if preemptive {
			settled[ci] = m < preemptQ8
		}
	}
	return float64(moveQ8) / coordOne
}

func absI64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
