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
//     candidates only (fxBandAVX2, lanes_amd64.s); every other tile runs
//     the lanes in Go.
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

// fxBand is the working memory of one band: the tiles of a tile row,
// and their x terms. A tile the AVX2 band kernel runs takes its
// candidates times its columns of int32 x terms, one after another in
// vxt; the lane files and int64 x terms (9 per image column) of the Go
// lane kernel are grown on its first tile.
type fxBand struct {
	tiles []fxTile
	vxt   []int32
	lanes []fxLaneFile
	xt    []int64
}

// fxTile is one tile of the tile row a band is assigning: whether
// preemption skips it this pass, and whether it runs the AVX2 band
// kernel, with its lanes and its x terms' offset in the band's vxt.
type fxTile struct {
	skip, vec bool
	off       int
	vt        fxVecTile
}

// fxRun is how many winning lanes a row kernel call writes: a row
// segment longer than that runs in several calls, so the winners fit on
// the stack.
const fxRun = 64

// band is the integer hot loop over tile rows [tyFrom, tyTo), band b of
// the pass, at every code width. It walks each tile row row-major:
// first every tile's candidates are read once into its lanes, and its x
// terms into the band's tables; then the tile row's image rows are
// walked left to right, one tile segment after another, so that codes
// and labels are read in order. A pass reads fixed centres, so the
// order of visits changes no label, and the sums are integer adds, so
// it changes no sum either.
//
// A width-0 tile whose int32 bound holds (see fxVecTile.load) runs the
// AVX2 band kernel on a host that has it, unless its rows are Hashed:
// one call per segment writes the labels and adds the sigma sums. Every
// other segment runs the width's row kernel — nearestRowGo at width 0,
// nearestRowCoded on a coded width — which writes every pixel's winning
// lane; the sigma update, the Cluster Update Unit's adders, then reads
// it. A Hashed row is evaluated whole and filtered here. DistanceCalcs
// counts the tile's candidates at subset pixels, not its parked lanes,
// so it matches the float64 oracle.
func (kn *fxKernel) band(acc []fxSigma, b, tyFrom, tyTo int) (calcs, skippedTiles, saved int64) {
	codes, tiling, centers, labels, settled := kn.codes, kn.tiling, kn.centers, kn.labels, kn.settled
	subset, k, scheme, preemptive := kn.subset, kn.k, kn.p.Scheme, kn.p.Preemptive
	hashed, coded := k > 1 && scheme == Hashed, kn.cw.bits != 0
	w, h, nx := labels.W, labels.H, tiling.NX
	dw, wL := kn.dw, int32(kn.dw.wL)
	vector := useAVX2 && !coded && !hashed
	_, step, _ := rowStride(scheme, 0, 0, h, subset, k) // the pass's column step
	bs := &kn.scr.fxBands[b]
	tiles := grow(&bs.tiles, nx)
	var vxt []int32
	if vector {
		// The kernel reads up to 7 x terms past a tile's last.
		vxt = grow(&bs.vxt, vecTerms(tiling, w, tyFrom, tyTo)+7)
	}
	var lanes []fxLaneFile
	var xt []int64
	var winners [fxRun]uint8
	for ty := tyFrom; ty < tyTo; ty++ {
		y0 := ty * h / tiling.NY
		y1 := (ty + 1) * h / tiling.NY
		off := 0
		for tx := range tiles {
			t := &tiles[tx]
			cand := tiling.Candidates[ty*nx+tx]
			x0 := tx * w / nx
			x1 := (tx + 1) * w / nx
			var sv int64
			if t.skip, sv = skipTile(preemptive, cand, settled, (x1-x0)*(y1-y0), k); t.skip {
				skippedTiles++
				saved += sv
				continue
			}
			if t.vec = vector && t.vt.load(centers, cand, vxt[off:], x0, x1, y0, y1, step, dw); t.vec {
				t.off = off
				off += len(cand) * (x1 - x0)
				continue
			}
			if lanes == nil {
				lanes = grow(&bs.lanes, nx)
				xt = grow(&bs.xt, fxLanes*w)
			}
			lanes[tx].load(centers, cand)
			lanes[tx].xTerms(xt[x0*fxLanes:x1*fxLanes], x0, x1, dw)
		}
		for y := y0; y < y1; y++ {
			row := y * w
			for tx := range tiles {
				t := &tiles[tx]
				x0 := tx * w / nx
				x1 := (tx + 1) * w / nx
				startX, stepX, ok := rowStride(scheme, x0, y, h, subset, k)
				if t.skip || !ok || startX >= x1 {
					continue
				}
				cand := tiling.Candidates[ty*nx+tx]
				if t.vec {
					tw, r := x1-x0, startX-x0
					m := (x1 - startX + stepX - 1) / stepX
					t.vt.yTerms(centers, y, dw)
					t.vt.segment(codes[row+startX:], labels.Labels[row+startX:],
						vxt[t.off+r*(tw/stepX)+min(r, tw%stepX):], acc, m, stepX, tw, startX, y)
					calcs += int64(len(cand) * m)
					continue
				}
				lf := &lanes[tx]
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

// vecTerms is how many x terms the AVX2 band kernel's tiles take in the
// most demanding of tile rows [tyFrom, tyTo): each tile's candidates
// times its columns.
func vecTerms(tiling *Tiling, w, tyFrom, tyTo int) int {
	most := 0
	for ty := tyFrom; ty < tyTo; ty++ {
		n := 0
		for tx := range tiling.NX {
			n += len(tiling.Candidates[ty*tiling.NX+tx]) * ((tx+1)*w/tiling.NX - tx*w/tiling.NX)
		}
		most = max(most, n)
	}
	return most
}

// Bounds of the AVX2 band kernel's int32 arithmetic.
const (
	// fxColourMax bounds the colour term of 8-bit codes, the codes of
	// width 0: (255²·wL)>>12 + (2·255²)<<4 is 2240806.
	fxColourMax = 1 << 22
	// fxKeyMax bounds a distance whose key d<<4 | lane fits int32.
	fxKeyMax = 1 << 27
	// fxCoordMax bounds the columns and rows the kernel sums 8 at a time
	// in 16 bits.
	fxCoordMax = 1 << 13
)

// fxVecTile is what the AVX2 band kernel reads of one tile: its n
// candidates' cluster indices and colour codes, L and 4a | 4b<<16, and
// their y terms on the row being assigned, y term<<4 | lane.
type fxVecTile struct {
	cand [fxLanes]int32
	l    [fxLanes]int32
	ab   [fxLanes]int32
	yl   [fxLanes]int32
	n    int
	wL   int32
}

// load prepares the tile of candidates cand, at columns [x0, x1) and
// rows [y0, y1), for the AVX2 band kernel, at column step step: its
// candidates' codes, and its x terms into xt, candidate j's at
// xt[j·tw + p], where p orders the columns by their phase (x − x0) mod
// step and then by x, so each row segment's are contiguous. It reports
// false, leaving the tile to the Go lane kernel, where its colour, x and
// y terms can sum to fxKeyMax or more, or where its pixels' coordinates
// reach fxCoordMax.
func (vt *fxVecTile) load(centers []fxCenter, cand []int32, xt []int32, x0, x1, y0, y1, step int, dw fxWeights) bool {
	if x1 > fxCoordMax || y1 > fxCoordMax {
		return false
	}
	n, tw := len(cand), x1-x0
	var cx [fxLanes]int64
	var maxY int64
	for j, ci := range cand {
		c := &centers[ci]
		cx[j] = c.x
		maxY = max(maxY, dw.spatial(int64(y0)<<coordFrac-c.y), dw.spatial(int64(y1-1)<<coordFrac-c.y))
	}
	limit := int64(fxKeyMax - fxColourMax)
	if maxY >= limit {
		return false
	}
	for c := range tw {
		xQ := int64(x0+c) << coordFrac
		r := c % step
		p := r*(tw/step) + min(r, tw%step) + c/step
		for j := range n {
			sx := dw.spatial(xQ - cx[j])
			if maxY+sx >= limit {
				return false
			}
			xt[j*tw+p] = int32(sx)
		}
	}
	vt.n, vt.wL = n, int32(dw.wL)
	for j, ci := range cand {
		l, a, b := centers[ci].codes()
		vt.cand[j], vt.l[j], vt.ab[j] = ci, l, a<<2|b<<18
	}
	return true
}

// yTerms sets the candidates' y terms for row y, in the key's form.
func (vt *fxVecTile) yTerms(centers []fxCenter, y int, dw fxWeights) {
	yQ := int64(y) << coordFrac
	for j, ci := range vt.cand[:vt.n] {
		vt.yl[j] = int32(dw.spatial(yQ-centers[ci].y))<<4 | int32(j)
	}
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

// key is lane j's argmin key d<<4 | j for a pixel with codes (pl, pa,
// pb). The colour term is computed in int32: the largest product,
// 255²·wL, is below 2^30, and every shifted value is non-negative, so
// it equals the int64 result.
func (lf *fxLaneFile) key(j int, pl, pa, pb, wL int32, sx *[fxLanes]int64) int64 {
	dl, da, db := pl-lf.l[j], pa-lf.a[j], pb-lf.b[j]
	d := lf.sy[j] + sx[j] + int64((dl*dl*wL)>>(weightFrac-distFrac)+(da*da+db*db)<<distFrac)
	return d<<4 | int64(j)
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
		dl, da, db := pl-lf.l[j], pa-lf.a[j], pb-lf.b[j]
		d := lf.sy[j] + sx[j] + int64((dl*dl*wL)>>(weightFrac-distFrac)+(da*da+db*db)<<cw.abShift)
		best = min(best, cw.distCode(d)<<4|int64(j))
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
