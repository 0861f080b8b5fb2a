package sslic

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"sslic/internal/dataset"
	"sslic/internal/video"
)

// rowKernel is one implementation of nearestRow, as the tests select it.
type rowKernel struct {
	name string
	avx2 bool
}

// hostRowKernels lists the row kernels this host runs: the Go loop, and
// the AVX2 kernel where the package detected AVX2.
var hostRowKernels = func() []rowKernel {
	ks := []rowKernel{{"go", false}}
	if useAVX2 {
		ks = append(ks, rowKernel{"avx2", true})
	}
	return ks
}()

// use routes nearestRow to k and returns the function that restores the
// package's choice.
func (k rowKernel) use() (restore func()) {
	was := useAVX2
	useAVX2 = k.avx2
	return func() { useAVX2 = was }
}

// TestNearestRowKernels holds each row kernel to nearestRowGo on lane
// files, codes and terms drawn from the whole of their types, not only
// the ranges a run produces: the kernels must agree on every wrapped
// product, shift and sum, and on parked and saturated lanes. Steps 1–4
// and rows of 0 to 40 pixels cover the strided and whole-row callers.
func TestNearestRowKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 4000; trial++ {
		var lf fxLaneFile
		regime := rng.Intn(5)
		for j := range fxLanes {
			lf.l[j], lf.a[j], lf.b[j] = draw32(rng), draw32(rng), draw32(rng)
			lf.sy[j] = draw64(rng, regime)
		}
		for j := rng.Intn(fxLanes + 1); j < fxLanes; j++ {
			lf.sy[j] = fxParked
		}
		wL := draw32(rng)
		n, step := rng.Intn(41), 1+rng.Intn(4)
		span := max(1, (n-1)*step+1)
		codes := make([]uint32, span)
		for i := range codes {
			codes[i] = uint32(draw32(rng))
		}
		xt := make([]int64, span*fxLanes)
		for i := range xt {
			xt[i] = draw64(rng, regime)
		}
		want := make([]uint8, n)
		nearestRowGo(&lf, codes, xt, step, wL, want)
		for _, rk := range hostRowKernels {
			got := make([]uint8, n)
			restore := rk.use()
			nearestRow(&lf, codes, xt, step, wL, got)
			restore()
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d, %s kernel, step %d: lanes %v, want %v", trial, rk.name, step, got, want)
			}
		}
	}
}

// draw32 is an int32 from one of the ranges a lane register sees: a
// code, a code-sized weight, or any value.
func draw32(rng *rand.Rand) int32 {
	switch rng.Intn(3) {
	case 0:
		return rng.Int31n(1 << 10)
	case 1:
		return rng.Int31n(1 << 16)
	default:
		return int32(rng.Uint32())
	}
}

// draw64 is an int64 from one of the ranges a y or x term takes: 0, so
// that the colour term decides, an unsaturated term, spatSaturated, or
// any value. A trial draws its terms from one regime (0–3), or from all
// of them at regime 4.
func draw64(rng *rand.Rand, regime int) int64 {
	if regime == 4 {
		regime = rng.Intn(4)
	}
	switch regime {
	case 0:
		return 0
	case 1:
		return rng.Int63n(1 << 35)
	case 2:
		return spatSaturated
	default:
		return int64(rng.Uint64())
	}
}

// TestWarmChainRowKernels runs the served configuration of a warm stream
// on each row kernel: 640×480 voronoi pan frames at K 900 and ratio 0.5,
// one cold frame, then warm frames at 3 iterations from the previous
// frame's centres, on the fixed datapath. Every frame's labels, centres,
// distance calcs and residuals must be identical across kernels.
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
