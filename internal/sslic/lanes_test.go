package sslic

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sslic/internal/dataset"
	"sslic/internal/video"
)

// rowKernel is one way the fixed datapath runs, as the tests select it:
// the Go lane kernel and the Go loop over lut.Codes alone, or the AVX2
// band kernel wherever a tile's bound admits it and the AVX2 conversion
// kernel.
type rowKernel struct {
	name string
	avx2 bool
}

// hostRowKernels lists the kernels this host runs: the Go kernels, and
// the AVX2 kernels where the package detected AVX2.
var hostRowKernels = func() []rowKernel {
	ks := []rowKernel{{"go", false}}
	if useAVX2 {
		ks = append(ks, rowKernel{"avx2", true})
	}
	return ks
}()

// use routes the band and the colour conversion to k and returns the
// function that restores the package's choice.
func (k rowKernel) use() (restore func()) {
	was := useAVX2
	useAVX2 = k.avx2
	return func() { useAVX2 = was }
}

// TestBandKernelContract holds the AVX2 band kernel to the Go lane
// kernel and consumer on random tile rows of 1–3 tiles: 1–9 candidates
// each, codes and centre colours over the whole 8-bit range, Interleaved
// passes at k 1–4 on every subset and Rows and Blocks passes, tiles
// whose rows hold 1–40 subset pixels, so that every tail of a group of
// 8 occurs, over 1–12 rows, so that the last block of k rows is often
// short. The spatial weight is drawn so that a tile's x plus y terms
// fall anywhere up to past the int32 bound, and in a quarter of the
// trials it sits at the bound's edge, on one side or the other.
// fxVecTile.load must admit a tile exactly when its terms, computed
// column by column and row by row, stay below the bound; on the admitted
// tiles both kernels must write the same labels, add the same sums and
// count the same calcs. Last, fxKernel.band must route a frame's tiles
// to the kernel at each k.
func TestBandKernelContract(t *testing.T) {
	if !useAVX2 {
		t.Skip("the host runs the Go lane kernel only")
	}
	rng := rand.New(rand.NewSource(11))
	wL := newFxWeights(1, newCodeWidth(0)).wL
	var ran [5]int // admitted tiles by k
	refused := 0
	for trial := 0; trial < 3000; trial++ {
		k := 1 + rng.Intn(4)
		scheme := Interleaved
		if rng.Intn(4) == 0 {
			scheme = []Scheme{Rows, Blocks}[rng.Intn(2)]
		}
		step := 1
		if scheme == Interleaved {
			step = k
		}
		subset := rng.Intn(k)
		nt, tw, th := 1+rng.Intn(3), 1+rng.Intn(40*step), 1+rng.Intn(12)
		// Half the tile rows lie at the far end of the coordinates the
		// kernel sums, where 8 pixels' rows or columns sum to nearly
		// 2^16. Codes and labels are held for the tile row alone.
		x0, y0 := rng.Intn(5), rng.Intn(5)
		if rng.Intn(2) == 0 {
			x0, y0 = fxCoordMax-nt*tw-rng.Intn(3), fxCoordMax-th-rng.Intn(3)
		}
		y1 := y0 + th
		w := x0 + nt*tw + rng.Intn(3)
		h := y1 + rng.Intn(2*th) // where Blocks' subsets fall
		codes := make([]uint32, th*w)
		for i := range codes {
			codes[i] = pack(rng.Uint32(), 255)
		}
		// Each tile's candidates are drawn from a pool of centres near
		// the tile row.
		pool := make([]fxCenter, 9*nt)
		for j := range pool {
			pool[j] = fxCenter{
				l: rng.Int31n(255*colorOne + 1), a: rng.Int31n(255*colorOne + 1), b: rng.Int31n(255*colorOne + 1),
				x: int64(max(0, x0-2*tw+rng.Intn((nt+4)*tw))) << coordFrac, y: int64(max(0, y0-2*th+rng.Intn(5*th))) << coordFrac,
			}
		}
		cands := make([][]int32, nt)
		for i := range cands {
			cands[i] = make([]int32, 1+rng.Intn(fxLanes))
			for j, ci := range rng.Perm(len(pool))[:len(cands[i])] {
				cands[i][j] = int32(ci)
			}
		}
		weights := func(wS int64) fxWeights { return fxWeights{wL: wL, wS: wS, spCap: math.MaxInt64 / wS} }
		// terms is the largest x term plus the largest y term over every
		// column and row of tile i.
		terms := func(i int, dw fxWeights) int64 {
			var maxX, maxY int64
			for _, ci := range cands[i] {
				for x := x0 + i*tw; x < x0+(i+1)*tw; x++ {
					maxX = max(maxX, dw.spatial(int64(x)<<coordFrac-pool[ci].x))
				}
				for y := y0; y < y1; y++ {
					maxY = max(maxY, dw.spatial(int64(y)<<coordFrac-pool[ci].y))
				}
			}
			return maxX + maxY
		}
		dw := weights(1 + int64(math.Pow(2, 34*rng.Float64())))
		if rng.Intn(4) == 0 {
			// The largest weight the bound admits on one tile, or the
			// next one.
			i := rng.Intn(nt)
			lo, hi := int64(1), int64(1)<<40
			for lo < hi {
				if mid := (lo + hi + 1) / 2; terms(i, weights(mid)) < fxTermMax {
					lo = mid
				} else {
					hi = mid - 1
				}
			}
			dw = weights(lo + int64(rng.Intn(2)))
		}

		var bk fxBlocks
		bk.plan(scheme, y0, y1, 0, w, h, subset, k, int32(wL))
		yt := make([]int32, len(pool)*th+7)
		fxYTerms(yt, pool, 0, len(pool), y0, y1, dw)
		xt := make([]int32, 9*nt*tw+7)
		vts := make([]fxVecTile, 0, nt)
		goLabels, vecLabels := make([]int32, th*w), make([]int32, th*w)
		goAcc, vecAcc := make([]fxSigma, len(pool)), make([]fxSigma, len(pool))
		var goCalcs int64
		off := 0
		for i, cand := range cands {
			tx0, tx1 := x0+i*tw, x0+(i+1)*tw
			var vt fxVecTile
			if got, want := vt.load(pool, cand, xt[off:], yt, 0, tx0, tx1, y0, y1, subset, &bk, dw), terms(i, dw) < fxTermMax; got != want {
				t.Fatalf("trial %d: load admits tile %d: %v, want %v (terms %d, bound %d)", trial, i, got, want, terms(i, dw), fxTermMax)
			} else if !got {
				refused++
				continue
			}
			ran[k]++
			vt.xt = int32(off)
			off += len(cand) * tw
			vts = append(vts, vt)

			var lf fxLaneFile
			lf.load(pool, cand)
			goXT := make([]int64, fxLanes*w)
			lf.xTerms(goXT[tx0*fxLanes:tx1*fxLanes], tx0, tx1, dw)
			for y := y0; y < y1; y++ {
				start, step, ok := rowStride(scheme, tx0, y, h, subset, k)
				if !ok || start >= tx1 {
					continue
				}
				row := (y - y0) * w
				lf.yTerms(y, dw)
				out := make([]uint8, (tx1-start+step-1)/step)
				nearestRowGo(&lf, codes[row+start:], goXT[start*fxLanes:], step, int32(wL), out)
				for j, lane := range out {
					x := start + j*step
					pl, pa, pb := unpackLab(codes[row+x])
					goLabels[row+x] = cand[lane]
					sg := &goAcc[cand[lane]]
					sg.l, sg.a, sg.b = sg.l+int64(pl), sg.a+int64(pa), sg.b+int64(pb)
					sg.x, sg.y, sg.n = sg.x+int64(x), sg.y+int64(y), sg.n+1
					goCalcs += int64(len(cand))
				}
			}
		}
		var calcs int64
		if len(vts) > 0 {
			calcs = bk.run(vts, codes, vecLabels, xt, yt, vecAcc)
		}
		where := fmt.Sprintf("trial %d (%v k %d subset %d, %d tiles %dx%d at (%d, %d))", trial, scheme, k, subset, nt, tw, th, x0, y0)
		if !slices.Equal(vecLabels, goLabels) {
			t.Fatalf("%s: labels %v, Go lane kernel %v", where, vecLabels, goLabels)
		}
		if !slices.Equal(vecAcc, goAcc) {
			t.Fatalf("%s: sums %+v, Go lane kernel %+v", where, vecAcc, goAcc)
		}
		if calcs != goCalcs {
			t.Fatalf("%s: %d calcs, Go lane kernel %d", where, calcs, goCalcs)
		}
	}
	if admitted := ran[1] + ran[2] + ran[3] + ran[4]; admitted < 1500 || refused < 500 {
		t.Fatalf("%d tiles admitted and %d refused: the draws miss one side of the bound", admitted, refused)
	}
	// Columns and rows from fxCoordMax on are the Go lane kernel's.
	centers := []fxCenter{{x: (fxCoordMax - 1) << coordFrac, y: (fxCoordMax - 1) << coordFrac}}
	yt := make([]int32, 16)
	for _, c := range [][4]int{{fxCoordMax - 2, fxCoordMax, 0, 1}, {fxCoordMax - 2, fxCoordMax + 1, 0, 1}, {0, 1, fxCoordMax - 1, fxCoordMax + 1}} {
		want := c[1] <= fxCoordMax && c[3] <= fxCoordMax
		var bk fxBlocks
		bk.plan(Interleaved, c[2], c[3], 0, c[1], c[3], 0, 1, 0)
		dw := newFxWeights(0, newCodeWidth(0))
		fxYTerms(yt, centers, 0, 1, c[2], c[3], dw)
		var vt fxVecTile
		if got := vt.load(centers, []int32{0}, make([]int32, 16), yt, 0, c[0], c[1], c[2], c[3], 0, &bk, dw); got != want {
			t.Errorf("columns [%d, %d), rows [%d, %d): load admits the tile: %v, want %v", c[0], c[1], c[2], c[3], got, want)
		}
	}
	for k := 1; k <= 4; k++ {
		t.Logf("avx2 band kernel, k=%d: %d tiles equal the Go lane kernel's, %d routed by fxKernel.band", k, ran[k], bandRoutes(t, k))
	}
	t.Logf("avx2 band kernel: %d tiles equal the Go lane kernel's, %d refused", ran[1]+ran[2]+ran[3]+ran[4], refused)
}

// bandRoutes runs fxKernel.band over an Interleaved pass at k on a
// 96×64 frame at K 24, whose every tile the AVX2 band kernel admits, and
// returns how many tiles of the last tile row it routed to the kernel;
// every one of them must be.
func bandRoutes(t *testing.T, k int) int {
	t.Helper()
	c := bandCase{seed: int64(k), w: 96, h: 64, K: 24, m: 10, scheme: Interleaved, k: k, subset: k - 1, bands: 1, datapath: Fixed}
	kn := newBandKernel(c)
	kn.assign(0, c.subset)
	routed := 0
	for _, vt := range kn.scr.fxBands[0].vts {
		if vt.n > 0 {
			routed++
		}
	}
	if routed != kn.tiling.NX {
		t.Errorf("k %d: fxKernel.band routed %d of the last tile row's %d tiles to the AVX2 band kernel", k, routed, kn.tiling.NX)
	}
	return routed
}

// TestConvKernelContract holds the colour conversion at 8 bits to
// lut.Codes, packed, on every one of the 2^24 RGB inputs, on each path
// the host runs: the Go loop, and the AVX2 conversion kernel where the
// host has AVX2. Lengths 0–23 at plane offsets 0–7 run every tail of a
// group of 8, and the words past the last pixel must stay as they were.
func TestConvKernelContract(t *testing.T) {
	conv := fixedConverter()
	const n = 1 << 16 // the inputs of one red value
	red, green, blue := make([]uint8, n), make([]uint8, n), make([]uint8, n)
	want, got := make([]uint32, n), make([]uint32, n)
	for r := range 256 {
		for i := range n {
			red[i], green[i], blue[i] = uint8(r), uint8(i>>8), uint8(i)
			want[i] = packLab(conv.Codes(red[i], green[i], blue[i], 8))
		}
		for _, k := range hostRowKernels {
			func() {
				defer k.use()()
				labCodes(got, red, green, blue, 8)
			}()
			if !slices.Equal(got, want) {
				i := 0
				for got[i] == want[i] {
					i++
				}
				t.Fatalf("%s conversion, rgb %02x%02x%02x: word %#x, lut.Codes %#x", k.name, r, green[i], blue[i], got[i], want[i])
			}
		}
	}

	rng := rand.New(rand.NewSource(3))
	const guard = 0xdeadbeef
	for _, k := range hostRowKernels {
		for length := range 24 {
			for off := range 8 {
				planes := [3][]uint8{}
				for c := range planes {
					planes[c] = make([]uint8, off+length)
					for i := range planes[c] {
						planes[c][i] = uint8(rng.Intn(256))
					}
					planes[c] = planes[c][off:]
				}
				words := make([]uint32, length+8)
				for i := range words {
					words[i] = guard
				}
				func() {
					defer k.use()()
					labCodes(words[:length], planes[0], planes[1], planes[2], 8)
				}()
				for i, w := range words {
					wantW := uint32(guard)
					if i < length {
						wantW = packLab(conv.Codes(planes[0][i], planes[1][i], planes[2][i], 8))
					}
					if w != wantW {
						t.Fatalf("%s conversion, length %d at offset %d: word %d is %#x, want %#x", k.name, length, off, i, w, wantW)
					}
				}
			}
		}
		t.Logf("%s conversion: every RGB input and every tail equal lut.Codes", k.name)
	}
}

// TestWarmChainRowKernels runs the served configuration of a warm stream
// on each kernel set, colour conversion included: 640×480 voronoi pan
// frames at K 900 and ratio 0.5, one cold frame, then warm frames at 3
// iterations from the previous frame's centres, on the fixed datapath.
// Every frame's labels, centres, distance calcs and residuals must be
// identical across kernels.
func TestWarmChainRowKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-frame chains")
	}
	if len(hostRowKernels) < 2 {
		t.Skip("the host runs the Go row kernel only")
	}
	const warmFrames = 5
	cfg := dataset.DefaultConfig()
	cfg.W, cfg.H = 640, 480
	for _, seed := range []int64{1, 2} {
		st, err := video.NewStream(cfg, seed, video.Pan, 3)
		if err != nil {
			t.Fatal(err)
		}
		// chains[k][f] is frame f of the chain on row kernel k.
		chains := make([][]*Result, len(hostRowKernels))
		for k, rk := range hostRowKernels {
			chains[k] = warmChain(t, st, rk, warmFrames)
		}
		for f, want := range chains[0] {
			for k := 1; k < len(chains); k++ {
				got := chains[k][f]
				where := fmt.Sprintf("seed %d frame %d, %s kernel", seed, f, hostRowKernels[k].name)
				if !slices.Equal(got.Labels.Labels, want.Labels.Labels) {
					t.Errorf("%s: labels differ from the %s kernel's", where, hostRowKernels[0].name)
				}
				if !slices.Equal(got.Centers, want.Centers) {
					t.Errorf("%s: centres differ", where)
				}
				if got.Stats.DistanceCalcs != want.Stats.DistanceCalcs {
					t.Errorf("%s: %d distance calcs, want %d", where, got.Stats.DistanceCalcs, want.Stats.DistanceCalcs)
				}
				if !slices.Equal(got.Stats.MoveHistory, want.Stats.MoveHistory) {
					t.Errorf("%s: residuals %v, want %v", where, got.Stats.MoveHistory, want.Stats.MoveHistory)
				}
			}
		}
	}
}

// warmChain segments frames 0 to warm of st on row kernel rk, on the
// fixed datapath at K 900 and ratio 0.5: frame 0 cold, every later frame
// at 3 iterations from the previous frame's centres.
func warmChain(t *testing.T, st *video.Stream, rk rowKernel, warm int) []*Result {
	t.Helper()
	defer rk.use()()
	p := DefaultParams(900, 0.5)
	p.Datapath = Fixed
	p.Scratch = NewScratch()
	var chain []*Result
	for f := 0; f <= warm; f++ {
		im, _, err := st.Frame(f)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Segment(im, p)
		if err != nil {
			t.Fatal(err)
		}
		chain = append(chain, r)
		p.InitialCenters, p.FullIters = r.Centers, 3
	}
	return chain
}
