package sslic

// The Fixed datapath: the paper's integer hardware arithmetic (§4.3,
// §6.1) substituted for the float64 reference in the PPA hot loop.
//
//   - Color conversion goes through internal/lut's Color Conversion Unit
//     model — the 256-entry sRGB gamma LUT and 8-segment PWL cube root —
//     producing the 8-bit Lab encoding the accelerator scratchpads hold
//     (L scaled to [0,255], a/b offset by +128). No math.Pow or
//     math.Cbrt per pixel. Each pixel's three codes are packed into one
//     uint32 word of three 10-bit fields, L | a<<10 | b<<20: the three
//     channel scratchpads of §4.3 read in one load, 4 bytes per pixel.
//     On amd64 hosts with AVX2 the 8-bit codes come from the unit's
//     arithmetic run 8 pixels to a vector register (ccuCodesAVX2,
//     convert_amd64.s); lut.Codes is its specification and runs
//     everywhere else.
//   - Distances are evaluated on the 8-bit codes with integer multiplies
//     and shifts. The L channel is re-weighted by (100/255)² in Q0.16 so
//     the code-space distance matches the float path's Lab-unit metric
//     (a/b codes are already 1:1 with Lab units); the spatial term
//     carries m²/S² in Q0.16 against Q8.8 sub-pixel center coordinates.
//   - The Cluster Update Unit's 9 distance calculators (Table 3's 9-9-6
//     unit) are 9 lanes of fixed-size register arrays. Every pixel runs
//     all 9; a border tile parks the lanes it has no candidate for at a
//     distance no candidate reaches. The argmin is branchless: the
//     smallest of the keys d<<4 | lane, so a tie goes to the first lane.
//     On amd64 hosts with AVX2, a width-0 tile whose keys fit int32 runs
//     8 pixels to a vector register instead, through its real
//     candidates only, one kernel call per tile row (fxRowAVX2,
//     lanes_amd64.s); every other tile runs the lanes in Go.
//   - The Cluster Update Unit's sigma accumulators are plain int64 sums
//     of codes and pixel coordinates. Integer addition is exactly
//     associative, so the per-band partial sums of a tiled pass merge to
//     the serial result bit-for-bit — the property that makes the tiled
//     fixed path byte-identical for every TileWorkers value (the float
//     path only guarantees identical labels; its center coordinates may
//     differ in the last FP bits across worker counts).
//   - The datapath fixes the code width (see codeWidth). Fixed, width 0,
//     is the served arithmetic above. Coded(w), a width of 4 to 10
//     bits, is the reduced-precision datapath §6.1 sweeps: colour codes of
//     that width, and distances that become saturating codes of that
//     width before the argmin compares them. Every width runs the same
//     band; only its row kernel differs (nearestRowCoded, in Go).
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
	// would overflow (degenerate compactness/geometry). Saturation is
	// what the hardware's bounded registers do. An unsaturated spatial
	// term is below 2^35 (MaxInt64 >> spatShift) and a colour term below
	// 2^22, so a distance is n·2^55 + u with n ∈ {0, 1, 2} saturated
	// terms and u < 2^37: two candidates compare as their (n, u) pairs
	// do, for any saturation value above u. That keeps every order and
	// every tie of the exact arithmetic, and the largest distance,
	// 2^56 + u, leaves the argmin key d<<4 | lane below 2^61.
	spatSaturated = int64(1) << 55
	// fxParked is the y term of a lane with no candidate: above every
	// real distance (< 2^57), and with the colour term still below 2^59,
	// so the parked lane's key fits too.
	fxParked = int64(1) << 58
	// fxLanes is the number of distance calculators: a tile's own center
	// and its 8 neighbours.
	fxLanes = 9
	// The code widths of Coded: the widths a packed word's 10-bit fields
	// hold, down to where §6.1's quality has collapsed.
	minCodeBits = 4
	maxCodeBits = 10
	// distFullScale is the squared distance, in Q4 Lab units², at which a
	// distance code saturates: 448 Lab units, the CIELAB diagonal (~374)
	// plus headroom for the spatial term.
	distFullScale = 448 * 448 << distFrac
)

// codeWidth is what the datapath's code width fixes in the kernel. Width
// 0, Fixed, is the served arithmetic: 8-bit LUT colour codes and exact
// distances. A width w of 4 to 10 bits, Coded(w), is §6.1's coded
// datapath: w-bit colour codes, L·(2^w−1)/100 and (a+128)·2^(w−8), and
// distances that become w-bit codes before the argmin compares them
// (distCode). At w = 8 the colour codes are width 0's.
type codeWidth struct {
	bits    int     // the datapath's codeBits
	max     int64   // the largest code, 2^w − 1 (255 at width 0)
	abScale float64 // a and b codes per Lab unit, 2^(w−8)
	abShift int     // brings squared a/b code differences to Q4 Lab units²
}

func newCodeWidth(bits int) codeWidth {
	colour := bits
	if bits == 0 {
		colour = 8
	}
	return codeWidth{bits: bits, max: 1<<colour - 1,
		abScale: math.Ldexp(1, colour-8), abShift: distFrac - 2*(colour-8)}
}

// distCode is the w-bit code of a Q4 distance d on a coded width:
// ⌊√(d/16)·(2^w−1)/448⌋, the distance in Lab units on a 448-unit full
// scale, saturating at 2^w−1.
func (cw *codeWidth) distCode(d int64) int64 {
	if d >= distFullScale {
		return cw.max
	}
	return isqrt(d * cw.max * cw.max / distFullScale)
}

// isqrt is the distance calculator's integer square root (§4.3 returns a
// distance, not its square): ⌊√v⌋, 0 for v ≤ 0. It works digit by digit
// (binary restoring), the structure a serial hardware unit uses, and is
// exact for every int64.
func isqrt(v int64) int64 {
	if v <= 0 {
		return 0
	}
	var root int64
	bit := int64(1) << 62
	for bit > v {
		bit >>= 2
	}
	for bit != 0 {
		if v >= root+bit {
			v -= root + bit
			root = root>>1 + bit
		} else {
			root >>= 1
		}
		bit >>= 2
	}
	return root
}

var (
	fixedConvOnce sync.Once
	fixedConv     *lut.Converter
	fixedConvVec  *ccuVec
)

// fixedConverter returns the process-wide Color Conversion Unit model,
// and lays out its ROM for the AVX2 conversion kernel. The tables are
// deterministic, so sharing one converter across all runs is safe and
// keeps the per-run setup free.
func fixedConverter() *lut.Converter {
	fixedConvOnce.Do(func() {
		fixedConv = lut.MustNewConverter(lut.DefaultSegments)
		fixedConvVec = newCCUVec(fixedConv.ROM())
	})
	return fixedConv
}

// ccuVec is the Color Conversion Unit's ROM as the AVX2 conversion
// kernel reads it (convert_amd64.s): the gamma LUT, each matrix
// coefficient and white reciprocal repeated in all 8 lanes, and the 8
// PWL segments one to a lane, for VPERMD to pick by segment.
type ccuVec struct {
	gamma                    [256]int32
	mat                      [3][3][8]int32
	invW                     [3][8]int32
	segBase, segSlope, segT0 [8]int32
}

// newCCUVec lays out rom for the kernel. Its PWL must have 8 segments,
// the unit's, one to a lane.
func newCCUVec(rom lut.ROM) *ccuVec {
	v := &ccuVec{gamma: rom.Gamma}
	if len(rom.SegT0) != len(v.segT0) {
		panic("sslic: the AVX2 conversion kernel reads a PWL of 8 segments")
	}
	for lane := range 8 {
		for row := range 3 {
			for col := range 3 {
				v.mat[row][col][lane] = rom.Matrix[row][col]
			}
			v.invW[row][lane] = rom.InvWhite[row]
		}
	}
	copy(v.segBase[:], rom.SegBase)
	copy(v.segSlope[:], rom.SegSlope)
	copy(v.segT0[:], rom.SegT0)
	return v
}

// fxCenter is a superpixel center in the fixed register format: Lab
// codes in Q8.8, coordinates in Q.8 pixels.
type fxCenter struct {
	l, a, b int32
	x, y    int64
}

// codes is the centre's colour as the distance calculators read it: its
// Q8.8 colours rounded to codes, the hardware's register-file read.
func (c *fxCenter) codes() (l, a, b int32) {
	return (c.l + colorOne/2) >> colorFrac, (c.a + colorOne/2) >> colorFrac, (c.b + colorOne/2) >> colorFrac
}

// fxSigma is the integer accumulator register file of the Cluster Update
// Unit: sums of codes and integer pixel coordinates plus the count.
type fxSigma = sigmaOf[int64]

// fxWeights carries the precomputed distance weights of one run.
type fxWeights struct {
	wL    int64 // Q0.16 L-code re-weighting, (100/(2^w−1))²
	wS    int64 // Q0.16 spatial weight m²/S²
	spCap int64 // largest (dx²+dy²) whose product with wS fits int64
}

// spatial is one axis of the spatial term for a Q8 offset d: d²·wS in
// Q4 distance units, or spatSaturated where the product would overflow.
func (w fxWeights) spatial(d int64) int64 {
	if sp := d * d; sp <= w.spCap {
		return (sp * w.wS) >> spatShift
	}
	return spatSaturated
}

// newFxWeights returns the weights of a run: the L weight that turns the
// width's code differences back into Lab units², and the spatial weight
// m²/S².
func newFxWeights(invS2 float64, cw codeWidth) fxWeights {
	const wSMax = int64(1) << 56
	w := fxWeights{
		wL: int64(math.Round(math.Pow(100/float64(cw.max), 2) * (1 << weightFrac))),
		wS: wSMax,
	}
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

// convertLabCodes runs the Color Conversion Unit into one packed Lab
// code word per pixel (see packLab), at code width bits: the colour
// codes of width 0 are those of width 8.
func convertLabCodes(im *imgio.Image, bits int, scr *Scratch) []uint32 {
	codes := grow(&scr.fxCodes, im.Pixels())
	labCodes(codes, im.C0, im.C1, im.C2, bits)
	return codes
}

// labCodes converts the pixels of planes r, g and b into codes, one
// packed word each, at code width bits. At 8 bits, width 0 included, a
// host with AVX2 runs the AVX2 conversion kernel, 8 pixels to a YMM
// register, and lut.Codes converts the last len(codes) mod 8. Every other
// width and host runs lut.Codes on each pixel; it is the kernel's
// specification.
func labCodes(codes []uint32, r, g, b []uint8, bits int) {
	conv := fixedConverter()
	if bits == 0 {
		bits = 8
	}
	if bits == 8 && useAVX2 {
		n := fixedConvVec.codes(codes, r, g, b)
		codes, r, g, b = codes[n:], r[n:], g[n:], b[n:]
	}
	r, g, b = r[:len(codes)], g[:len(codes)], b[:len(codes)]
	for i := range codes {
		codes[i] = packLab(conv.Codes(r[i], g[i], b[i], bits))
	}
}

// packLab packs a pixel's three Lab codes, of up to 10 bits each, into
// one word.
func packLab(l, a, b uint16) uint32 { return uint32(l) | uint32(a)<<10 | uint32(b)<<20 }

// unpackLab returns the three codes of a packed word at the width the
// distance arithmetic uses.
func unpackLab(c uint32) (l, a, b int32) {
	return int32(c & 0x3ff), int32(c >> 10 & 0x3ff), int32(c >> 20)
}

// initCentersFixed seeds the grid as the float64 path does, through
// slic.GridSeed, on the packed codes and their code-space gradients.
func initCentersFixed(codes []uint32, w, h int, tiling *Tiling, perturb bool, centers []fxCenter, scr *Scratch) {
	var grad []int64
	if perturb {
		grad = gradientMapFixed(codes, w, h, scr)
	}
	for gy := 0; gy < tiling.NY; gy++ {
		for gx := 0; gx < tiling.NX; gx++ {
			x, y := slic.GridSeed(w, h, tiling.NX, tiling.NY, gx, gy, grad)
			l, a, b := unpackLab(codes[y*w+x])
			centers[gy*tiling.NX+gx] = fxCenter{
				l: l << colorFrac, a: a << colorFrac, b: b << colorFrac,
				x: int64(x) << coordFrac, y: int64(y) << coordFrac,
			}
		}
	}
}

// gradientMapFixed is slic.GradientMap on the 8-bit codes; border
// pixels get MaxInt64 so perturbation never lands on the image edge.
func gradientMapFixed(codes []uint32, w, h int, scr *Scratch) []int64 {
	grad := grow(&scr.fxGrad, w*h)
	for i := range grad {
		grad[i] = math.MaxInt64
	}
	// sq is the squared code distance of two pixels.
	sq := func(i, j int) int64 {
		l0, a0, b0 := unpackLab(codes[i])
		l1, a1, b1 := unpackLab(codes[j])
		dl, da, db := int64(l1-l0), int64(a1-a0), int64(b1-b0)
		return dl*dl + da*da + db*db
	}
	for y := 1; y < h-1; y++ {
		for x := 1; x < w-1; x++ {
			i := y*w + x
			grad[i] = sq(i-1, i+1) + sq(i-w, i+w)
		}
	}
	return grad
}

// quantizeCenters converts warm-start float64 centers into the fixed
// register format at code width cw — the entry point of a warm frame
// whose previous segmentation ran on either datapath.
func quantizeCenters(src []slic.Center, dst []fxCenter, w, h int, cw codeWidth) {
	top := int32(cw.max) * colorOne
	for i, c := range src {
		dst[i] = fxCenter{
			l: clampI32(math.Round(c.L*float64(cw.max)/100*colorOne), 0, top),
			a: clampI32(math.Round((c.A+128)*cw.abScale*colorOne), 0, top),
			b: clampI32(math.Round((c.B+128)*cw.abScale*colorOne), 0, top),
			x: clampI64(math.Round(c.X*coordOne), 0, int64(w-1)*coordOne),
			y: clampI64(math.Round(c.Y*coordOne), 0, int64(h-1)*coordOne),
		}
	}
}

// floatCenters converts the fixed registers at code width cw back to the
// public slic.Center form (Lab units, pixel coordinates).
func floatCenters(fx []fxCenter, cw codeWidth) []slic.Center {
	out := make([]slic.Center, len(fx))
	for i, c := range fx {
		out[i] = slic.Center{
			L: float64(c.l) / colorOne * 100 / float64(cw.max),
			A: float64(c.a)/colorOne/cw.abScale - 128,
			B: float64(c.b)/colorOne/cw.abScale - 128,
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
	codes   []uint32 // packed Lab codes, one word per pixel
	centers []fxCenter
	acc     []fxSigma
	settled []bool
	cw      codeWidth
	dw      fxWeights
	subset  int // the subset the current pass assigns
}

func (kn *fxKernel) convert(im *imgio.Image) {
	bits := kn.p.Datapath.codeBits()
	kn.cw = newCodeWidth(bits)
	kn.codes = convertLabCodes(im, bits, kn.scr)
}

func (kn *fxKernel) seed(tiling *Tiling, labels *imgio.LabelMap) {
	kn.tiling, kn.labels = tiling, labels
	kn.centers = grow(&kn.scr.fxCenters, tiling.NumTiles())
	if kn.p.InitialCenters != nil {
		quantizeCenters(kn.p.InitialCenters, kn.centers, labels.W, labels.H, kn.cw)
	} else {
		initCentersFixed(kn.codes, labels.W, labels.H, tiling, kn.p.PerturbCenters, kn.centers, kn.scr)
	}
	ownCenterFill(labels, tiling, false)
	kn.settled = kn.scr.settledFor(len(kn.centers))
	kn.acc = grow(&kn.scr.fxPass.acc, len(kn.centers))
	kn.dw = newFxWeights(kn.invS2, kn.cw)
}

func (kn *fxKernel) assign(pass, subset int) (calcs, skipped, saved int64, err error) {
	clear(kn.acc)
	kn.subset = subset
	grow(&kn.scr.fxBands, tileBands(kn.p.TileWorkers, kn.tiling.NY)) // one working set per band
	return runBands(&kn.frame, kn, kn.acc, &kn.scr.fxPass, pass)
}

// fxBand is the working memory of one band, for the tile row it is
// assigning. For the AVX2 band kernel: its tiles, and in one table their
// x terms, candidate by candidate in column order, then the y terms of
// the centres they read (see fxYTerms). For the Go lane kernel, grown on
// its first tile: a lane file per tile, whose n is 0 on the tiles it
// does not run, and int64 x terms, 9 per image column.
type fxBand struct {
	vts   []fxVecTile
	terms []int32
	lanes []fxLaneFile
	xt    []int64
}

// fxRun is how many winning lanes a row kernel call writes: a row
// segment longer than that runs in several calls, so the winners fit on
// the stack.
const fxRun = 64

// band is the integer hot loop over tile rows [tyFrom, tyTo), band b of
// the pass, at every code width. Per tile row, it first checks each
// tile: preemption may skip it, and a tile that holds no pixel of the
// pass's subset (see visits) is left unread. A width-0 tile whose int32
// bound holds (see fxVecTile.load) runs the AVX2 band kernel on a host
// that has it, unless the pass is Hashed: one kernel call assigns every
// such tile of the tile row, writing the labels and adding the sigma
// sums. The other tiles are walked row by row, left to right, one tile
// segment after another, by the width's row kernel — nearestRowGo at
// width 0, nearestRowCoded on a coded width — which writes every pixel's
// winning lane; the sigma update, the Cluster Update Unit's adders, then
// reads it. A Hashed row is evaluated whole and filtered here. A pass
// reads fixed centres, so the order of visits changes no label, and the
// sums are integer adds, so it changes no sum either. DistanceCalcs
// counts the tile's candidates at subset pixels, not its parked lanes,
// so it matches the float64 oracle.
func (kn *fxKernel) band(acc []fxSigma, b, tyFrom, tyTo int) (calcs, skippedTiles, saved int64) {
	codes, tiling, centers, labels, settled := kn.codes, kn.tiling, kn.centers, kn.labels, kn.settled
	subset, k, scheme, preemptive := kn.subset, kn.k, kn.p.Scheme, kn.p.Preemptive
	hashed, coded := k > 1 && scheme == Hashed, kn.cw.bits != 0
	w, h, nx, ny := labels.W, labels.H, tiling.NX, tiling.NY
	dw, wL := kn.dw, int32(kn.dw.wL)
	vector := useAVX2 && !coded && !hashed
	bs := &kn.scr.fxBands[b]
	var vts []fxVecTile
	var vxt, yt []int32
	if vector {
		nxt, nyt := vecTerms(tiling, w, h, tyFrom, tyTo)
		// The kernel reads up to 7 x terms past a tile's last, and 7 y
		// terms past a centre's.
		terms := grow(&bs.terms, nxt+nyt+14)
		vts, vxt, yt = grow(&bs.vts, nx), terms[:nxt+7], terms[nxt+7:]
	}
	var lanes []fxLaneFile
	var xt []int64
	var winners [fxRun]uint8
	for ty := tyFrom; ty < tyTo; ty++ {
		y0 := ty * h / ny
		y1 := (ty + 1) * h / ny
		// The tile row's candidates are the centres of tile rows ty−1 to
		// ty+1, whose y terms are computed on its first AVX2 tile.
		base, top := max(ty-1, 0)*nx, min(ty+2, ny)*nx
		var bk fxBlocks
		nv, off, walk, yDone := 0, 0, false, false
		for tx := range nx {
			if lanes != nil {
				lanes[tx].n = 0
			}
			cand := tiling.Candidates[ty*nx+tx]
			x0 := tx * w / nx
			x1 := (tx + 1) * w / nx
			if skip, sv := skipTile(preemptive, cand, settled, (x1-x0)*(y1-y0), k); skip {
				skippedTiles++
				saved += sv
				continue
			}
			if !visits(scheme, x0, x1, y0, y1, h, subset, k) {
				continue
			}
			if vector {
				if !yDone {
					yDone = true
					bk.plan(scheme, y0, y1, base, w, h, subset, k, wL)
					fxYTerms(yt, centers, base, top, y0, y1, dw)
				}
				if vts[nv].load(centers, cand, vxt[off:], yt, base, x0, x1, y0, y1, subset, &bk, dw) {
					vts[nv].xt = int32(off)
					nv++
					off += len(cand) * (x1 - x0)
					continue
				}
			}
			if lanes == nil {
				lanes = grow(&bs.lanes, nx)
				for i := range lanes {
					lanes[i].n = 0
				}
				xt = grow(&bs.xt, fxLanes*w)
			}
			walk = true
			lanes[tx].load(centers, cand)
			lanes[tx].xTerms(xt[x0*fxLanes:x1*fxLanes], x0, x1, dw)
		}
		if nv > 0 {
			calcs += bk.run(vts[:nv], codes[y0*w:], labels.Labels[y0*w:], vxt, yt, acc)
		}
		if !walk {
			continue
		}
		for y := y0; y < y1; y++ {
			row := y * w
			for tx := range lanes {
				lf := &lanes[tx]
				x0 := tx * w / nx
				x1 := (tx + 1) * w / nx
				startX, stepX, ok := rowStride(scheme, x0, y, h, subset, k)
				if lf.n == 0 || !ok || startX >= x1 {
					continue
				}
				cand := tiling.Candidates[ty*nx+tx]
				lf.yTerms(y, dw)
				for ; startX < x1; startX += fxRun * stepX {
					out := winners[:min(fxRun, (x1-startX+stepX-1)/stepX)]
					if coded {
						nearestRowCoded(lf, codes[row+startX:], xt[startX*fxLanes:], stepX, wL, &kn.cw, out)
					} else {
						nearestRowGo(lf, codes[row+startX:], xt[startX*fxLanes:], stepX, wL, out)
					}
					for j, lane := range out {
						x := startX + j*stepX
						if hashed && subsetOf(scheme, x, y, w, h, k) != subset {
							continue
						}
						i := row + x
						pl, pa, pb := unpackLab(codes[i])
						lbl := cand[lane]
						calcs += int64(len(cand))
						labels.Labels[i] = lbl
						sg := &acc[lbl]
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
	}
	return calcs, skippedTiles, saved
}

// visits reports whether a pass over subset of k, on the scheme, visits
// a pixel of the tile [x0, x1)×[y0, y1) in a frame h rows tall: in O(1),
// from the rows, or on Interleaved from the diagonals x + y, that the
// subset holds. A Hashed pass may visit any tile.
func visits(scheme Scheme, x0, x1, y0, y1, h, subset, k int) bool {
	switch {
	case x0 >= x1 || y0 >= y1:
		return false
	case k == 1 || scheme == Hashed:
		return true
	case scheme == Interleaved:
		// The tile's pixels lie on every diagonal from x0+y0 to x1+y1−2.
		return x0+y0+mod(subset-x0-y0, k) <= x1+y1-2
	}
	first, end := subsetRows(scheme, y0, y1, h, subset, k)
	return first < end
}

// subsetRows returns the first and the end of the rows of [y0, y1) that
// a pass over subset of k holds, on the Rows and Blocks schemes: every
// k-th row from first on Rows, and rows [first, end) on Blocks, the rows
// y with y·k/h = subset.
func subsetRows(scheme Scheme, y0, y1, h, subset, k int) (first, end int) {
	if scheme == Rows {
		return y0 + mod(subset-y0, k), y1
	}
	return max(y0, (subset*h+k-1)/k), min(y1, ((subset+1)*h+k-1)/k)
}

// vecTerms is how many x terms and how many y terms the AVX2 band
// kernel takes in the most demanding of tile rows [tyFrom, tyTo): each
// tile's candidates times its columns, and the rows of the centres of
// the tile row and of its neighbours times its image rows.
func vecTerms(tiling *Tiling, w, h, tyFrom, tyTo int) (xTerms, yTerms int) {
	nx, ny := tiling.NX, tiling.NY
	for ty := tyFrom; ty < tyTo; ty++ {
		n := 0
		for tx := range nx {
			n += len(tiling.Candidates[ty*nx+tx]) * ((tx+1)*w/nx - tx*w/nx)
		}
		xTerms = max(xTerms, n)
		yTerms = max(yTerms, (min(ty+2, ny)-max(ty-1, 0))*nx*((ty+1)*h/ny-ty*h/ny))
	}
	return xTerms, yTerms
}

// Bounds of the AVX2 band kernel's int32 arithmetic.
const (
	// fxColourMax bounds the colour term of 8-bit codes, the codes of
	// width 0: (255²·wL)>>12 + (2·255²)<<4 is 2240806.
	fxColourMax = 1 << 22
	// fxKeyMax bounds a distance whose key d<<4 | lane fits int32.
	fxKeyMax = 1 << 27
	// fxTermMax bounds a tile's largest x term plus its largest y term.
	fxTermMax = fxKeyMax - fxColourMax
	// fxCoordMax bounds the columns and rows the kernel sums 8 at a time
	// in 16 bits.
	fxCoordMax = 1 << 13
)

// fxBlocks is how the AVX2 band kernel walks one tile row of a pass: in
// n blocks, the first at row y and each stride rows after the last, of
// up to rows (at most 8) consecutive rows, cut at row end. Lane c of a
// tile's group of 8 takes column x0 + c of the group, from the block's
// row (p − c) mod m, where p is the group's phase: on an Interleaved pass
// over subset of k, m is k, and the row is the one whose diagonal holds
// the subset, so k rows visit each column once; every other pass visits
// whole rows, one to a block, and m is 1. A lane whose row is not in the
// block is idle. shift is stride mod m, dm is (−8) mod m, the phase
// step from one group to the next, and lanes[c] is (−c) mod m, lane c's
// row less the phase. The tile row's y terms (see fxYTerms) start at
// its first row, y0, and at centre c0, th rows to a centre; w is the
// frame's width; wL is the L weight.
type fxBlocks struct {
	y, n, stride, rows, end int
	m, shift, dm            int
	lanes                   [8]int32
	y0, th, c0, w, wL       int
}

// plan sets bk to the blocks of a pass over subset of k, on the scheme,
// in rows [y0, y1) of a frame w×h, whose y terms start at centre c0, at
// L weight wL. On a pass that visits none of the rows it sets no block.
func (bk *fxBlocks) plan(scheme Scheme, y0, y1, c0, w, h, subset, k int, wL int32) {
	*bk = fxBlocks{y: y0, stride: 1, rows: 1, end: y1, m: 1, y0: y0, th: y1 - y0, c0: c0, w: w, wL: int(wL)}
	switch {
	case k == 1:
	case scheme == Interleaved:
		bk.m, bk.rows, bk.stride = k, min(k, 8), min(k, 8)
	case scheme == Rows:
		bk.y, _ = subsetRows(scheme, y0, y1, h, subset, k)
		bk.stride = k
	default:
		bk.y, bk.end = subsetRows(scheme, y0, y1, h, subset, k)
	}
	bk.n = max(0, (bk.end-bk.y+bk.stride-1)/bk.stride)
	bk.shift, bk.dm = bk.stride%bk.m, mod(-8, bk.m)
	for c := range bk.lanes {
		bk.lanes[c] = int32(mod(-c, bk.m))
	}
}

// fxYTerms sets the y terms of centres [base, top) on rows [y0, y1),
// shifted left by 4: centre ci's on row y at yt[(ci−base)·(y1−y0) + y −
// y0]. Since fxWeights.spatial is monotone in the offset, a centre's
// largest y term lies on the first or the last row. Where that reaches
// fxTermMax, no tile that reads the centre is admitted (see
// fxVecTile.load): both ends take fxTermMax and the rows between are
// not set. Every other term is below 2^27, and exact in int64 with no
// saturation test.
func fxYTerms(yt []int32, centers []fxCenter, base, top, y0, y1 int, dw fxWeights) {
	th := y1 - y0
	for ci := base; ci < top; ci++ {
		ys := yt[(ci-base)*th : (ci-base+1)*th]
		dy := int64(y0)<<coordFrac - centers[ci].y
		if max(dw.spatial(dy), dw.spatial(dy+int64(th-1)<<coordFrac)) >= fxTermMax {
			ys[0], ys[th-1] = fxTermMax<<4, fxTermMax<<4
			continue
		}
		spatialTerms(ys, dy, dw.wS, 0)
	}
}

// spatialTerms sets terms[i] to the spatial term of the offset d + i
// pixels, (d + i·coordOne)²·wS >> spatShift, shifted left by 4 and ORed
// with lane; every term must be below 2^27. The products are summed by
// their first and second differences, which are constant in i, so a
// term costs adds alone. The sums wrap where an intermediate one
// overflows, but each term's exact value fits int64, so modulo 2^64 the
// sums give it exactly.
func spatialTerms(terms []int32, d, wS int64, lane int) {
	f := d * d * wS
	g := (2*d + coordOne) * coordOne * wS
	c := 2 * coordOne * coordOne * wS
	for i := range terms {
		terms[i] = int32(f>>spatShift)<<4 | int32(lane)
		f += g
		g += c
	}
}

// fxVecTile is what the AVX2 band kernel reads of one tile, at columns
// [x0, x0+tw): its n candidates' cluster indices and colour codes, L and
// 4a | 4b<<16, the phase p of its first group in the first block (lane
// c's row there is (p − c) mod m), and the offset of its x terms in the
// band's table.
type fxVecTile struct {
	cand [fxLanes]int32
	l    [fxLanes]int32
	ab   [fxLanes]int32
	p    int32
	n    int32
	x0   int32
	tw   int32
	xt   int32
}

// load prepares the tile of candidates cand, at columns [x0, x1) of the
// tile row [y0, y1), for the AVX2 band kernel's blocks bk over subset:
// its candidates' codes, its lanes' rows, and its x terms into xt,
// candidate j's at xt[j·tw + x − x0], as x term<<4 | j. It reports false,
// leaving the tile to the Go lane kernel, where its colour, x and y
// terms can sum to fxKeyMax or more, or where its pixels' coordinates
// reach fxCoordMax. Both largest terms lie at the tile's first or last
// column and row, so the bound is checked there; every x term under it
// is exact in int64 with no saturation test.
func (vt *fxVecTile) load(centers []fxCenter, cand []int32, xt, yt []int32, base, x0, x1, y0, y1, subset int, bk *fxBlocks, dw fxWeights) bool {
	if x1 > fxCoordMax || y1 > fxCoordMax {
		return false
	}
	tw, th := x1-x0, y1-y0
	var maxX, maxY int64
	for _, ci := range cand {
		off := (int(ci) - base) * th
		maxY = max(maxY, int64(yt[off]>>4), int64(yt[off+th-1]>>4))
		dx := int64(x0)<<coordFrac - centers[ci].x
		maxX = max(maxX, dw.spatial(dx), dw.spatial(dx+int64(tw-1)<<coordFrac))
	}
	if maxX+maxY >= fxTermMax {
		return false
	}
	for j, ci := range cand {
		c := &centers[ci]
		spatialTerms(xt[j*tw:(j+1)*tw], int64(x0)<<coordFrac-c.x, dw.wS, j)
		l, a, b := c.codes()
		vt.cand[j], vt.l[j], vt.ab[j] = ci, l, a<<2|b<<18
	}
	vt.n, vt.x0, vt.tw = int32(len(cand)), int32(x0), int32(tw)
	vt.p = int32(mod(subset-x0-bk.y, bk.m))
	return true
}

// fxLaneFile is the register file of the 9 distance calculators for one
// tile: each lane's candidate as codes (its Q8.8 colours rounded,
// the hardware's register-file read) and Q8 coordinates, and its y term
// on the row being assigned.
type fxLaneFile struct {
	l, a, b [fxLanes]int32
	x, y    [fxLanes]int64
	sy      [fxLanes]int64
	n       int // lanes holding a candidate; the rest are parked
}

// load reads a tile's candidates into the first lanes and parks the
// rest at fxParked, so every pixel can run all 9. A parked lane's codes
// are whatever it last held: any codes of the run's width keep its key
// in range.
func (lf *fxLaneFile) load(centers []fxCenter, cand []int32) {
	lf.n = len(cand)
	for j, ci := range cand {
		c := &centers[ci]
		lf.l[j], lf.a[j], lf.b[j] = c.codes()
		lf.x[j], lf.y[j] = c.x, c.y
	}
	for j := lf.n; j < fxLanes; j++ {
		lf.sy[j] = fxParked
	}
}

// xTerms fills xt with the x terms of columns [x0, x1), one entry per
// column and lane; a parked lane's is 0. The spatial term splits
// exactly into this and the y term, and each is saturated here, where
// it is computed once, so the pixel loop has no saturation test.
func (lf *fxLaneFile) xTerms(xt []int64, x0, x1 int, dw fxWeights) {
	for x := x0; x < x1; x++ {
		lanes := (*[fxLanes]int64)(xt[(x-x0)*fxLanes:])
		xQ := int64(x) << coordFrac
		for j := 0; j < lf.n; j++ {
			lanes[j] = dw.spatial(xQ - lf.x[j])
		}
		clear(lanes[lf.n:])
	}
}

// yTerms sets the candidates' y terms for row y.
func (lf *fxLaneFile) yTerms(y int, dw fxWeights) {
	yQ := int64(y) << coordFrac
	for j := 0; j < lf.n; j++ {
		lf.sy[j] = dw.spatial(yQ - lf.y[j])
	}
}

// nearest returns the argmin key of a pixel with codes (pl, pa, pb) and
// x terms sx: the least d<<4 | lane over the 9 lanes, so equal
// distances go to the first lane, as a scan with a strict < does. The
// lanes are written out because the compiler unrolls no loop.
func (lf *fxLaneFile) nearest(pl, pa, pb, wL int32, sx *[fxLanes]int64) int64 {
	return min(lf.key(0, pl, pa, pb, wL, sx), lf.key(1, pl, pa, pb, wL, sx), lf.key(2, pl, pa, pb, wL, sx),
		lf.key(3, pl, pa, pb, wL, sx), lf.key(4, pl, pa, pb, wL, sx), lf.key(5, pl, pa, pb, wL, sx),
		lf.key(6, pl, pa, pb, wL, sx), lf.key(7, pl, pa, pb, wL, sx), lf.key(8, pl, pa, pb, wL, sx))
}

// nearestRowGo is the row contract of the 9 distance calculators: for
// each i < len(out), the winning lane (0–8) of the pixel at
// codes[i*step], whose x terms are at xt[i*step*fxLanes:]. It runs where
// the AVX2 band kernel does not, and is that kernel's specification.
func nearestRowGo(lf *fxLaneFile, codes []uint32, xt []int64, step int, wL int32, out []uint8) {
	for i := range out {
		pl, pa, pb := unpackLab(codes[i*step])
		out[i] = uint8(lf.nearest(pl, pa, pb, wL, (*[fxLanes]int64)(xt[i*step*fxLanes:])) & 0xf)
	}
}

// key is lane j's argmin key d<<4 | j for a pixel with 8-bit codes (pl,
// pa, pb).
func (lf *fxLaneFile) key(j int, pl, pa, pb, wL int32, sx *[fxLanes]int64) int64 {
	return lf.dist(j, pl, pa, pb, wL, distFrac, sx)<<4 | int64(j)
}

// dist is lane j's Q4 distance for a pixel with codes (pl, pa, pb) and x
// terms sx, at the L weight wL and the a/b shift abShift of the codes'
// width. The colour term is computed in int32: the largest product,
// (2^w−1)²·wL, is below 2^30, and every shifted value is non-negative,
// so it equals the int64 result.
func (lf *fxLaneFile) dist(j int, pl, pa, pb, wL int32, abShift int, sx *[fxLanes]int64) int64 {
	dl, da, db := pl-lf.l[j], pa-lf.a[j], pb-lf.b[j]
	return lf.sy[j] + sx[j] + int64((dl*dl*wL)>>(weightFrac-distFrac)+(da*da+db*db)<<abShift)
}

// nearestCoded is nearest on a coded width: each lane's distance, at the
// width's colour weights, becomes its distance code — what §4.3's
// distance calculator returns — and the least code<<4 | lane wins, so
// equal codes go to the first lane. A parked lane saturates to the
// largest code and sits above every candidate's lane. The colour term
// stays below 2^31 at every width: (2^w−1)²·wL is about 100²·2^16, and
// the a/b term about 2^21.
func (lf *fxLaneFile) nearestCoded(pl, pa, pb, wL int32, cw *codeWidth, sx *[fxLanes]int64) int64 {
	best := int64(math.MaxInt64)
	for j := range fxLanes {
		best = min(best, cw.distCode(lf.dist(j, pl, pa, pb, wL, cw.abShift, sx))<<4|int64(j))
	}
	return best
}

// nearestRowCoded is nearestRowGo's contract on a coded width, a Go loop
// over nearestCoded on every platform.
func nearestRowCoded(lf *fxLaneFile, codes []uint32, xt []int64, step int, wL int32, cw *codeWidth, out []uint8) {
	for i := range out {
		pl, pa, pb := unpackLab(codes[i*step])
		out[i] = uint8(lf.nearestCoded(pl, pa, pb, wL, cw, (*[fxLanes]int64)(xt[i*step*fxLanes:])) & 0xf)
	}
}

func (kn *fxKernel) update(int) (float64, int) {
	preemptQ8 := int64(math.Round(kn.p.preemptThreshold() * coordOne))
	return applySigmaFixed(kn.centers, kn.acc, kn.settled, preemptQ8, kn.p.Preemptive), len(kn.centers)
}

func (kn *fxKernel) finish() []slic.Center { return floatCenters(kn.centers, kn.cw) }

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
