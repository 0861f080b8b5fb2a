package sslic

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"sslic/internal/dataset"
	"sslic/internal/faults"
	"sslic/internal/imgio"
	"sslic/internal/metrics"
	"sslic/internal/slic"
	"sslic/internal/telemetry"
)

// bestMatchDisagreement maps each label of got onto the label of want it
// overlaps most, then counts the pixels outside that majority mapping.
// Raw label comparison between independent runs is meaningless — the
// connectivity sweep renumbers components — so parity between the fixed
// and float datapaths is measured on matched regions.
func bestMatchDisagreement(got, want *imgio.LabelMap) float64 {
	overlap := map[[2]int32]int{}
	for i := range got.Labels {
		overlap[[2]int32{got.Labels[i], want.Labels[i]}]++
	}
	best := map[int32]int32{}
	bestN := map[int32]int{}
	for k, n := range overlap {
		if n > bestN[k[0]] {
			bestN[k[0]] = n
			best[k[0]] = k[1]
		}
	}
	bad := 0
	for i := range got.Labels {
		if best[got.Labels[i]] != want.Labels[i] {
			bad++
		}
	}
	return float64(bad) / float64(len(got.Labels))
}

// fixedParams is the common fixed-datapath configuration of this file.
func fixedParams(k int, ratio float64) Params {
	p := DefaultParams(k, ratio)
	p.Datapath = Fixed
	return p
}

// TestFixedDatapathValidation: Validate accepts the nine datapaths and
// no other value, and every datapath but float64 is the fixed datapath:
// PPA only, with its own fused center update. CLIs surface that refusal
// as it is, so its error names the fixed datapath.
func TestFixedDatapathValidation(t *testing.T) {
	im := testImage(32, 32)
	valid := map[DatapathKind]bool{}
	for _, d := range allDatapaths() {
		valid[d] = true
	}
	others := []DatapathKind{math.MinInt, math.MaxInt}
	for d := DatapathKind(-16); d <= 64; d++ {
		others = append(others, d)
	}
	for _, d := range others {
		p := DefaultParams(9, 0.5)
		p.Datapath = d
		if err := p.Validate(32, 32); (err == nil) != valid[d] {
			t.Errorf("datapath %d: Validate error %v, want one: %v", d, err, !valid[d])
		}
	}
	offPPA := []struct {
		name string
		mod  func(*Params)
	}{
		{"CPA", func(p *Params) { p.Arch = CPA }},
		{"SLIC", func(p *Params) { p.Arch, p.SubsampleRatio = SLIC, 1 }},
		{"software center update", func(p *Params) { p.SoftwareCenterUpdate = true }},
	}
	for _, d := range allDatapaths()[1:] {
		for _, c := range offPPA {
			p := DefaultParams(9, 0.5)
			p.Datapath = d
			c.mod(&p)
			if _, err := Segment(im, p); err == nil || !strings.Contains(err.Error(), "fixed datapath") {
				t.Errorf("%v on %s: Segment error %v, want one naming the fixed datapath", d, c.name, err)
			}
		}
		p := DefaultParams(9, 0.5)
		p.Datapath = d
		if _, err := Segment(im, p); err != nil {
			t.Errorf("%v on PPA rejected: %v", d, err)
		}
	}
}

// TestFixedTiledMatchesSerialExact is the tiled determinism contract on
// the fixed datapath: the integer sigma accumulators make the band merge
// exactly associative, so every TileWorkers value must reproduce the
// serial run bit for bit — labels, centers, and work counters alike.
func TestFixedTiledMatchesSerialExact(t *testing.T) {
	im := testImage(128, 96)
	serial, err := Segment(im, fixedParams(48, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 8, -1} {
		p := fixedParams(48, 0.5)
		p.TileWorkers = workers
		r, err := Segment(im, p)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range serial.Labels.Labels {
			if serial.Labels.Labels[i] != r.Labels.Labels[i] {
				t.Fatalf("workers=%d: label mismatch at pixel %d", workers, i)
			}
		}
		if serial.Stats.DistanceCalcs != r.Stats.DistanceCalcs {
			t.Fatalf("workers=%d: calcs %d vs serial %d", workers,
				r.Stats.DistanceCalcs, serial.Stats.DistanceCalcs)
		}
		// Centers come out of integer accumulators: equality is exact,
		// no floating-point tolerance.
		for ci := range serial.Centers {
			if serial.Centers[ci] != r.Centers[ci] {
				t.Fatalf("workers=%d: center %d differs from serial", workers, ci)
			}
		}
		for pi := range serial.Stats.MoveHistory {
			if serial.Stats.MoveHistory[pi] != r.Stats.MoveHistory[pi] {
				t.Fatalf("workers=%d: residual history differs at pass %d", workers, pi)
			}
		}
	}
}

// TestFloatWorkersOneMatchesSerial pins the trivial end of the contract
// on the float64 datapath too: TileWorkers 0 and 1 are the same serial
// code path and must agree exactly (larger counts are covered by
// parallel_test.go up to FP summation order).
func TestFloatWorkersOneMatchesSerial(t *testing.T) {
	im := testImage(96, 64)
	a, err := Segment(im, DefaultParams(24, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams(24, 0.5)
	p.TileWorkers = 1
	b, err := Segment(im, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Labels.Labels {
		if a.Labels.Labels[i] != b.Labels.Labels[i] {
			t.Fatalf("label mismatch at %d", i)
		}
	}
	for ci := range a.Centers {
		if a.Centers[ci] != b.Centers[ci] {
			t.Fatalf("center %d differs", ci)
		}
	}
}

// TestFixedParityWithFloat is the property-based parity suite: over
// seeded random scenes, the tiled fixed datapath must stay within a
// pinned label-disagreement budget of the serial float64 oracle, and its
// boundary recall against the scene ground truth must not trail the
// oracle's by more than a pinned margin. The budgets are deliberately
// tight enough that a broken distance scale or a mis-merged band blows
// straight through them.
func TestFixedParityWithFloat(t *testing.T) {
	// The disagreement sits on superpixel boundaries (8-bit color codes
	// and Q8 coordinates round the tie zone), so the budget scales with
	// the boundary fraction: ~6% on a 240×160 frame, more on the small
	// frames here. 0.15 is loose enough for that and far too tight for a
	// broken distance scale, which lands above 0.5.
	const (
		disagreementBudget = 0.15 // fraction of pixels outside the matched mapping
		brMargin           = 0.05 // boundary-recall points the fixed path may trail by
	)
	for _, seed := range []int64{1, 2, 3, 4} {
		cfg := dataset.DefaultConfig()
		cfg.W, cfg.H = 120, 90
		cfg.Regions = 10
		s, err := dataset.Generate(cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := Segment(s.Image, DefaultParams(48, 0.5))
		if err != nil {
			t.Fatal(err)
		}
		p := fixedParams(48, 0.5)
		p.TileWorkers = 3
		fixed, err := Segment(s.Image, p)
		if err != nil {
			t.Fatal(err)
		}
		if d := bestMatchDisagreement(fixed.Labels, oracle.Labels); d > disagreementBudget {
			t.Errorf("seed %d: matched disagreement %.4f exceeds budget %.2f", seed, d, disagreementBudget)
		}
		brFloat, err := metrics.BoundaryRecall(oracle.Labels, s.GT, 2)
		if err != nil {
			t.Fatal(err)
		}
		brFixed, err := metrics.BoundaryRecall(fixed.Labels, s.GT, 2)
		if err != nil {
			t.Fatal(err)
		}
		if brFixed < brFloat-brMargin {
			t.Errorf("seed %d: fixed BR %.4f trails float BR %.4f by more than %.2f",
				seed, brFixed, brFloat, brMargin)
		}
	}
}

// TestFixedCorpusParity is the corpus gate for serving the fixed
// datapath in place of float64: over 12 corpus scenes at the corpus
// size, 481×321 (four each of Voronoi mosaics, blobs and stripes), at K
// 400 and 900 and ratios 1, 0.5 and 0.25, the fixed datapath's mean
// undersegmentation error may exceed float64's by at most 0.005, and
// its mean boundary recall may trail float64's by at most 0.005.
// TestFixedParityWithFloat bounds single small frames; this bounds the
// Fig 2 quality metrics on the frames Fig 2 is measured on.
func TestFixedCorpusParity(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus run is slow")
	}
	const (
		scenes    = 12
		useMargin = 0.005 // mean USE the fixed datapath may add
		brMargin  = 0.005 // mean BR it may lose
	)
	configs := []struct {
		k     int
		ratio float64
	}{{400, 1}, {400, 0.5}, {400, 0.25}, {900, 1}, {900, 0.5}, {900, 0.25}}
	kinds := []dataset.Kind{dataset.Voronoi, dataset.Blobs, dataset.Stripes}
	// delta[i][c] is scene i's USE and BR at configs[c], fixed minus
	// float64.
	delta := make([][][2]float64, scenes)
	t.Run("scenes", func(t *testing.T) {
		for i := range delta {
			t.Run(fmt.Sprint(i), func(t *testing.T) {
				t.Parallel()
				cfg := dataset.DefaultConfig()
				cfg.Kind = kinds[i%len(kinds)]
				s, err := dataset.Generate(cfg, int64(1+i/len(kinds)))
				if err != nil {
					t.Fatal(err)
				}
				quality := func(p Params) (use, br float64) {
					r, err := Segment(s.Image, p)
					if err != nil {
						t.Fatal(err)
					}
					if use, err = metrics.UndersegmentationError(r.Labels, s.GT); err != nil {
						t.Fatal(err)
					}
					if br, err = metrics.BoundaryRecall(r.Labels, s.GT, 2); err != nil {
						t.Fatal(err)
					}
					return use, br
				}
				d := make([][2]float64, len(configs))
				for c, cf := range configs {
					p := DefaultParams(cf.k, cf.ratio)
					useFloat, brFloat := quality(p)
					p.Datapath = Fixed
					useFixed, brFixed := quality(p)
					d[c] = [2]float64{useFixed - useFloat, brFixed - brFloat}
				}
				delta[i] = d
			})
		}
	})
	if t.Failed() {
		return
	}
	for c, cf := range configs {
		var use, br float64
		for _, d := range delta {
			use += d[c][0] / scenes
			br += d[c][1] / scenes
		}
		t.Logf("K %d, ratio %g: mean ΔUSE %+.4f, mean ΔBR %+.4f", cf.k, cf.ratio, use, br)
		if use > useMargin {
			t.Errorf("K %d, ratio %g: mean USE rises by %.4f on the fixed datapath, want at most %.3f", cf.k, cf.ratio, use, useMargin)
		}
		if br < -brMargin {
			t.Errorf("K %d, ratio %g: mean BR falls by %.4f on the fixed datapath, want at most %.3f", cf.k, cf.ratio, -br, brMargin)
		}
	}
}

// TestFixedInvariantsOnRandomImages sweeps the fixed datapath across
// random sizes, K values, ratios, schemes and worker counts; the
// structural label invariants must hold regardless of content.
func TestFixedInvariantsOnRandomImages(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := 16 + r.Intn(60)
		h := 16 + r.Intn(60)
		k := 2 + r.Intn(20)
		ratios := []float64{1, 0.5, 0.25}
		schemes := []Scheme{Interleaved, Rows, Blocks, Hashed}
		p := fixedParams(k, ratios[r.Intn(len(ratios))])
		p.Scheme = schemes[r.Intn(len(schemes))]
		p.FullIters = 1 + r.Intn(4)
		p.TileWorkers = r.Intn(5)
		im := randomImage(rng, w, h)
		res, err := Segment(im, p)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		n := res.Labels.NumRegions()
		if int(res.Labels.MaxLabel())+1 != n {
			t.Logf("seed %d: labels not dense", seed)
			return false
		}
		for _, v := range res.Labels.Labels {
			if v < 0 || int(v) >= n {
				t.Logf("seed %d: label %d out of range", seed, v)
				return false
			}
		}
		if !allConnected(res.Labels) {
			t.Logf("seed %d: disconnected label after connectivity pass", seed)
			return false
		}
		for _, c := range res.Centers {
			if c.X < 0 || c.X >= float64(w) || c.Y < 0 || c.Y >= float64(h) {
				t.Logf("seed %d: center (%g,%g) outside %dx%d", seed, c.X, c.Y, w, h)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestFixedWarmStart drives the float→fixed center quantization path:
// a warm-started fixed run must accept the previous frame's centers and
// still satisfy the label invariants.
func TestFixedWarmStart(t *testing.T) {
	im := testImage(96, 72)
	first, err := Segment(im, fixedParams(24, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	p := fixedParams(24, 0.5)
	p.InitialCenters = first.Centers
	p.FullIters = 2
	second, err := Segment(im, p)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range second.Labels.Labels {
		if v < 0 {
			t.Fatalf("pixel %d unassigned after warm start", i)
		}
	}
}

// TestFixedPreemptive composes the settled-tile early halt with the
// fixed datapath; skips must register and the result stays valid. On
// the fixed path the settled flags derive from integer movement, so the
// combination is deterministic for every worker count — assert that too.
func TestFixedPreemptive(t *testing.T) {
	im := testImage(96, 96)
	run := func(workers int) *Result {
		p := fixedParams(36, 0.5)
		p.Preemptive = true
		p.FullIters = 12
		p.TileWorkers = workers
		r, err := Segment(im, p)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	serial, par := run(0), run(4)
	if serial.Labels.NumRegions() == 0 {
		t.Fatal("no regions")
	}
	for i := range serial.Labels.Labels {
		if serial.Labels.Labels[i] != par.Labels.Labels[i] {
			t.Fatalf("preemptive fixed run not worker-invariant at pixel %d", i)
		}
	}
	if serial.Stats.SkippedTiles != par.Stats.SkippedTiles {
		t.Fatalf("skip counts differ: %d vs %d", serial.Stats.SkippedTiles, par.Stats.SkippedTiles)
	}
}

// TestFixedCancelStress hammers concurrent tiled fixed runs under
// randomized cancellation — the workload the -race CI job locks down.
// Every run must either complete with a fully labeled map or fail with
// the context's error; a torn result is a bug either way.
func TestFixedCancelStress(t *testing.T) {
	im := testImage(80, 60)
	var wg sync.WaitGroup
	errs := make([]error, 16)
	results := make([]*Result, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if g%2 == 1 {
				// Cancel at a pseudo-random point mid-run.
				timer := time.AfterFunc(time.Duration(1+g*37%11)*time.Millisecond, cancel)
				defer timer.Stop()
			}
			p := fixedParams(24, 0.5)
			p.TileWorkers = 3
			results[g], errs[g] = SegmentContext(ctx, im, p)
		}(g)
	}
	wg.Wait()
	var done *Result
	for g := range errs {
		switch {
		case errs[g] == nil:
			for i, v := range results[g].Labels.Labels {
				if v < 0 {
					t.Fatalf("goroutine %d: pixel %d unassigned in successful run", g, i)
				}
			}
			if done == nil {
				done = results[g]
			} else {
				// Completed runs are bit-identical regardless of the
				// cancellation churn around them.
				for i := range done.Labels.Labels {
					if done.Labels.Labels[i] != results[g].Labels.Labels[i] {
						t.Fatalf("completed runs disagree at pixel %d", i)
					}
				}
			}
		case errors.Is(errs[g], context.Canceled):
			// Expected for the canceled half.
		default:
			t.Fatalf("goroutine %d: unexpected error %v", g, errs[g])
		}
	}
	if done == nil {
		t.Fatal("every run was canceled; stress test proved nothing")
	}
}

// TestTileFaultInjection covers the sslic.tile injection point: a fault
// in any band must fail the whole run, and with every band firing the
// reported band is deterministically the lowest index.
func TestTileFaultInjection(t *testing.T) {
	defer faults.Disable()
	im := testImage(64, 48)
	for _, workers := range []int{0, 3} {
		inj := faults.New(1)
		inj.Set(faults.PointTile, faults.PointConfig{Every: 1, ErrMsg: "tile dead"})
		faults.Enable(inj)
		p := fixedParams(16, 0.5)
		p.TileWorkers = workers
		_, err := Segment(im, p)
		if err == nil {
			t.Fatalf("workers=%d: injected tile fault did not surface", workers)
		}
		if !faults.IsTransient(err) {
			t.Fatalf("workers=%d: error %v does not unwrap to ErrInjected", workers, err)
		}
		faults.Disable()
	}
	// The float64 path shares the band plumbing; one spot check.
	inj := faults.New(1)
	inj.Set(faults.PointTile, faults.PointConfig{Every: 1, ErrMsg: "tile dead"})
	faults.Enable(inj)
	p := DefaultParams(16, 0.5)
	p.TileWorkers = 2
	if _, err := Segment(im, p); err == nil {
		t.Fatal("float64 path: injected tile fault did not surface")
	}
}

// TestFixedTelemetryGauges: a tiled run must report its band count and
// a sane imbalance ratio on the registry.
func TestFixedTelemetryGauges(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := fixedParams(24, 0.5)
	p.TileWorkers = 3
	p.Metrics = NewMetrics(reg)
	if _, err := Segment(testImage(96, 96), p); err != nil {
		t.Fatal(err)
	}
	if got := p.Metrics.TileBands.Value(); got != 3 {
		t.Fatalf("TileBands = %v, want 3", got)
	}
	if got := p.Metrics.TileImbalance.Value(); got < 1.0 {
		t.Fatalf("TileImbalance = %v, want >= 1.0", got)
	}
}

// refSpatSaturated is the reference kernel's saturated spatial term.
const refSpatSaturated = int64(1) << 60

// refFxKernel carries the fixed kernel's hot loop as it stood before
// the 9-lane rewrite, on three int32 code planes, with a saturation
// branch per candidate and a compare-and-branch argmin, plus the coded
// widths' distance codes (refDistCode). It is the differential oracle of
// fxKernel.band: the lane kernel must reproduce its labels, sigma sums
// and work counters exactly.
type refFxKernel struct {
	fxKernel
	lp, ap, bp []int32
}

// refDistCode is the distance code of a Q4 distance d by its
// definition: the largest c ≤ max with 448·c ≤ √(d/16)·max, that is
// 16·(448c)² ≤ d·max².
func refDistCode(d, max int64) int64 {
	if d >= 16*448*448 {
		return max
	}
	c := int64(math.Sqrt(float64(d*max*max) / (16 * 448 * 448)))
	for c > 0 && 16*448*448*c*c > d*max*max {
		c--
	}
	for 16*448*448*(c+1)*(c+1) <= d*max*max {
		c++
	}
	return c
}

// band is the reference hot loop, copied verbatim but for the coded
// widths' a/b shift and distance code.
func (kn *refFxKernel) band(acc []fxSigma, tyFrom, tyTo int) (calcs, skippedTiles, saved int64) {
	lp, ap, bp, tiling, centers, labels, settled := kn.lp, kn.ap, kn.bp, kn.tiling, kn.centers, kn.labels, kn.settled
	subset, k, scheme, preemptive := kn.subset, kn.k, kn.p.Scheme, kn.p.Preemptive
	w, h := labels.W, labels.H

	wL, wS, spCap, abShift, coded := kn.dw.wL, kn.dw.wS, kn.dw.spCap, kn.cw.abShift, kn.cw.bits != 0
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
						sy[j] = refSpatSaturated
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
						d := sy[j] + (int64(dl*dl)*wL)>>(weightFrac-distFrac) + int64(da*da+db*db)<<abShift
						dx := xQ - cx[j]
						if sp := dx * dx; sp <= spCap {
							d += (sp * wS) >> spatShift
						} else {
							d += refSpatSaturated
						}
						if coded {
							d = refDistCode(d, kn.cw.max)
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

// bandCase is one draw of the band oracle: geometry, content seed,
// compactness, subset scheme and pass, preemption, band count and code
// width.
type bandCase struct {
	seed       int64
	w, h, K    int
	m          float64
	scheme     Scheme
	k, subset  int
	preemptive bool
	bands      int
	datapath   DatapathKind // Fixed or a coded width
}

// checkFixedBand runs one subset pass of fxKernel over random packed
// codes, centers and settled flags, once with every row kernel the host
// runs, and the reference kernel over the same state band by band.
// Labels, merged sigma accumulators and the (calcs, skipped, saved)
// counters must be identical.
func checkFixedBand(t *testing.T, c bandCase) {
	t.Helper()
	kn := newBandKernel(c)
	n, nc, tiling := c.w*c.h, kn.tiling.NumTiles(), kn.tiling

	ref := refFxKernel{fxKernel: *kn, lp: make([]int32, n), ap: make([]int32, n), bp: make([]int32, n)}
	ref.labels = imgio.NewLabelMap(c.w, c.h)
	copy(ref.labels.Labels, kn.labels.Labels)
	for i, word := range kn.codes {
		ref.lp[i], ref.ap[i], ref.bp[i] = unpackLab(word)
	}

	ref.subset = c.subset
	refAcc := make([]fxSigma, nc)
	var rCalcs, rSkipped, rSaved int64
	ny := tiling.NY
	nb := tileBands(c.bands, ny)
	for i := 0; i < nb; i++ {
		part := make([]fxSigma, nc)
		bc, bs, bv := ref.band(part, i*ny/nb, (i+1)*ny/nb)
		rCalcs, rSkipped, rSaved = rCalcs+bc, rSkipped+bs, rSaved+bv
		for ci := range refAcc {
			refAcc[ci].add(&part[ci])
		}
	}

	start := slices.Clone(kn.labels.Labels)
	for _, rk := range hostRowKernels {
		copy(kn.labels.Labels, start)
		restore := rk.use()
		calcs, skipped, saved, err := kn.assign(0, c.subset)
		restore()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := [3]int64{calcs, skipped, saved}, [3]int64{rCalcs, rSkipped, rSaved}; got != want {
			t.Fatalf("%s kernel, %+v: (calcs, skipped, saved) = %v, reference %v", rk.name, c, got, want)
		}
		for i := range ref.labels.Labels {
			if kn.labels.Labels[i] != ref.labels.Labels[i] {
				t.Fatalf("%s kernel, %+v: label %d at (%d, %d), reference %d", rk.name, c, kn.labels.Labels[i],
					i%c.w, i/c.w, ref.labels.Labels[i])
			}
		}
		for ci := range refAcc {
			if kn.acc[ci] != refAcc[ci] {
				t.Fatalf("%s kernel, %+v: sigma %d = %+v, reference %+v", rk.name, c, ci, kn.acc[ci], refAcc[ci])
			}
		}
	}
}

// newBandKernel returns an fxKernel set up for one subset pass of c:
// random packed codes, centers and settled flags, and every label its
// own tile's centre.
func newBandKernel(c bandCase) *fxKernel {
	rng := rand.New(rand.NewSource(c.seed))
	n := c.w * c.h
	tiling := NewTiling(c.w, c.h, c.K)
	s := slic.GridInterval(c.w, c.h, c.K)
	p := Params{K: c.K, Compactness: c.m, Scheme: c.scheme, Preemptive: c.preemptive,
		TileWorkers: c.bands, Datapath: c.datapath}
	kn := &fxKernel{frame: frame{p: p, scr: new(Scratch), tiling: tiling,
		labels: imgio.NewLabelMap(c.w, c.h), k: c.k, s: s, invS2: c.m * c.m / (s * s)},
		cw: newCodeWidth(c.datapath.codeBits())}
	top := uint32(kn.cw.max)
	// Half the draws take codes and center colours from a palette of
	// 1–3 words and put centers on whole pixels, so that exact distance
	// ties, which the tie rule decides, are common.
	var palette []uint32
	if rng.Intn(2) == 0 {
		palette = make([]uint32, 1+rng.Intn(3))
		for i := range palette {
			palette[i] = pack(rng.Uint32(), top)
		}
	}
	code := func() uint32 {
		if palette != nil {
			return palette[rng.Intn(len(palette))]
		}
		return pack(rng.Uint32(), top)
	}
	kn.codes = make([]uint32, n)
	for i := range kn.codes {
		kn.codes[i] = code()
	}
	nc := tiling.NumTiles()
	kn.centers = make([]fxCenter, nc)
	kn.settled = make([]bool, nc)
	settleP := []float64{0, 0.5, 0.9, 1}[rng.Intn(4)]
	for i := range kn.centers {
		ct := &kn.centers[i]
		if palette != nil {
			l, a, b := unpackLab(code())
			ct.l, ct.a, ct.b = l<<colorFrac, a<<colorFrac, b<<colorFrac
			ct.x, ct.y = int64(rng.Intn(c.w))<<coordFrac, int64(rng.Intn(c.h))<<coordFrac
		} else {
			ct.l, ct.a, ct.b = rng.Int31n(int32(top)*colorOne+1), rng.Int31n(int32(top)*colorOne+1), rng.Int31n(int32(top)*colorOne+1)
			ct.x, ct.y = rng.Int63n(int64(c.w-1)*coordOne+1), rng.Int63n(int64(c.h-1)*coordOne+1)
		}
		kn.settled[i] = rng.Float64() < settleP
	}
	kn.acc = make([]fxSigma, nc)
	kn.dw = newFxWeights(kn.invS2, kn.cw)
	ownCenterFill(kn.labels, tiling, false)

	return kn
}

// pack packs the three fields of a random word, each cut to top (a
// code width's largest code), in the code word's layout.
func pack(word, top uint32) uint32 {
	return packLab(uint16(word&top), uint16(word>>10&top), uint16(word>>20&top))
}

// fuzzBandCase maps raw fuzz inputs onto a bandCase: W, H ≤ 72, any K,
// compactness clamped to [0.01, 1e8] (both saturation regimes), every
// scheme, k ∈ {1, 2, 4, 3} with any of its subsets, 1–3 bands, and the
// fixed datapath at width 0 (Fixed) or a coded width 4–10.
func fuzzBandCase(seed int64, w8, h8 uint8, k16 uint16, m float64, scheme, subsets, subset uint8, preemptive bool, bands, bits uint8) bandCase {
	c := bandCase{seed: seed, w: 1 + int(w8)%72, h: 1 + int(h8)%72, m: math.Abs(m),
		scheme: Scheme(scheme % 4), k: []int{1, 2, 4, 3}[subsets%4], preemptive: preemptive, bands: 1 + int(bands)%3,
		datapath: allDatapaths()[1+int(bits)%8]}
	c.K = 1 + int(k16)%(c.w*c.h)
	c.subset = int(subset) % c.k
	if !(c.m >= 0.01) { // also catches NaN
		c.m = 0.01
	}
	c.m = min(c.m, 1e8)
	return c
}

// FuzzFixedBand is the differential oracle of the fixed band, through
// each kernel the host runs, against the reference loop. The seed
// corpus, which every go test run checks, holds the golden fixed rows'
// configurations (scheme, compactness, preemption, bands) on a frame of
// the fuzz range, each subset of their pass, at width 0 and at every
// coded width, the corners of the range, 300 seeded random draws with
// compactness log-uniform over [0.01, 1e8] at width 0 and 300 more at
// random coded widths, and, at width 0, compactness on both sides of
// the AVX2 band kernel's int32 bound, Rows and Blocks at k = 2 and 4,
// tiles whose segments are one pixel, and, for the kernel's blocks of k
// rows, Interleaved at k = 3 on each subset, with tile heights that k
// does not divide.
func FuzzFixedBand(f *testing.F) {
	type golden struct {
		m          float64
		scheme     Scheme
		preemptive bool
		bands      uint8
	}
	for i, g := range []golden{
		{10, Interleaved, false, 0}, {10, Interleaved, false, 2}, {10, Rows, false, 2},
		{10, Blocks, false, 2}, {10, Hashed, false, 2}, {10, Interleaved, true, 2},
		{1e7, Interleaved, false, 0}, {1e7, Interleaved, false, 2},
	} {
		for subset := uint8(0); subset < 2; subset++ {
			for bits := uint8(0); bits < 8; bits++ {
				f.Add(int64(i), uint8(71), uint8(53), uint16(63), g.m, uint8(g.scheme), uint8(1), subset, g.preemptive, g.bands, bits)
			}
		}
	}
	f.Add(int64(99), uint8(0), uint8(0), uint16(0), 0.01, uint8(0), uint8(0), uint8(0), false, uint8(0), uint8(0))
	f.Add(int64(7), uint8(71), uint8(71), uint16(5183), 1e8, uint8(3), uint8(2), uint8(3), true, uint8(1), uint8(0))
	f.Add(int64(7), uint8(71), uint8(71), uint16(5183), 1e8, uint8(3), uint8(2), uint8(3), true, uint8(1), uint8(7))
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 600; i++ {
		bits := uint8(0)
		if i >= 300 {
			bits = uint8(1 + i%7)
		}
		f.Add(rng.Int63(), uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint16(rng.Intn(1<<16)),
			math.Pow(10, -2+10*rng.Float64()), uint8(rng.Intn(4)), uint8(rng.Intn(3)), uint8(rng.Intn(4)),
			rng.Intn(2) == 1, uint8(rng.Intn(3)), bits)
	}
	// Compactness across the int32 bound's edge at width 0: in these
	// frames some tiles run the AVX2 band kernel and others, past the
	// bound, the Go lane kernel, in one band.
	for i, m := range []float64{250, 300, 350, 420, 500, 600} {
		f.Add(int64(100+i), uint8(71), uint8(53), uint16(63), m, uint8(Interleaved), uint8(1), uint8(i%2), false, uint8(i%3), uint8(0))
	}
	// Rows and Blocks at k = 2 and 4, whose passes visit whole rows.
	for _, scheme := range []Scheme{Rows, Blocks} {
		for _, subsets := range []uint8{1, 2} {
			f.Add(int64(200), uint8(71), uint8(53), uint16(63), 10.0, uint8(scheme), subsets, uint8(1), false, uint8(1), uint8(0))
		}
	}
	// Tiles 2 columns wide, so that every Interleaved segment at k = 2
	// is one pixel.
	f.Add(int64(300), uint8(39), uint8(19), uint16(199), 10.0, uint8(Interleaved), uint8(1), uint8(0), false, uint8(0), uint8(0))
	f.Add(int64(301), uint8(39), uint8(19), uint16(199), 10.0, uint8(Interleaved), uint8(1), uint8(1), false, uint8(2), uint8(0))
	// Interleaved at k = 3 on each subset: 72×54 at K 63 has tiles 7 or
	// 8 rows tall, and 65×46 at K 20 tiles 11 or 12 rows tall, at 1–3
	// bands; then k = 2 and 4 on 64×7 at K 8 and 64×22 at K 15, whose
	// tiles are 7 and 11 rows tall, so the last block of each tile row is
	// short.
	for subset := uint8(0); subset < 3; subset++ {
		f.Add(int64(400)+int64(subset), uint8(71), uint8(53), uint16(63), 10.0, uint8(Interleaved), uint8(3), subset, false, subset, uint8(0))
		f.Add(int64(410)+int64(subset), uint8(64), uint8(45), uint16(20), 10.0, uint8(Interleaved), uint8(3), subset, subset == 1, uint8(0), uint8(0))
	}
	for _, subsets := range []uint8{1, 2} {
		f.Add(int64(420), uint8(63), uint8(6), uint16(8), 10.0, uint8(Interleaved), subsets, uint8(1), false, uint8(0), uint8(0))
		f.Add(int64(421), uint8(63), uint8(21), uint16(15), 10.0, uint8(Interleaved), subsets, uint8(0), false, uint8(1), uint8(0))
	}
	f.Fuzz(func(t *testing.T, seed int64, w8, h8 uint8, k16 uint16, m float64, scheme, subsets, subset uint8, preemptive bool, bands, bits uint8) {
		checkFixedBand(t, fuzzBandCase(seed, w8, h8, k16, m, scheme, subsets, subset, preemptive, bands, bits))
	})
}

func TestIsqrtExact(t *testing.T) {
	cases := map[int64]int64{
		0: 0, 1: 1, 2: 1, 3: 1, 4: 2, 8: 2, 9: 3, 15: 3, 16: 4,
		1 << 40: 1 << 20, (1 << 30) - 1: 32767,
	}
	for v, want := range cases {
		if got := isqrt(v); got != want {
			t.Errorf("isqrt(%d) = %d, want %d", v, got, want)
		}
	}
	if got := isqrt(-9); got != 0 {
		t.Error("negative input must yield 0")
	}
}

func TestIsqrtFloorProperty(t *testing.T) {
	prop := func(raw uint32) bool {
		v := int64(raw)
		r := isqrt(v)
		return r*r <= v && (r+1)*(r+1) > v
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestIsqrtMonotone(t *testing.T) {
	prop := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return isqrt(x) <= isqrt(y)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestDistanceCodeProperties pins the coded datapath's distance code at
// every width: 0 when the pixel equals its center, saturation at 2^w−1
// from the 448-unit full scale on, and monotone in the colour
// difference.
func TestDistanceCodeProperties(t *testing.T) {
	for bits := minCodeBits; bits <= maxCodeBits; bits++ {
		cw := newCodeWidth(bits)
		top := int32(cw.max)
		mid := top / 2
		// code is the distance code of a pixel with codes (l, a, b) at
		// (x, y) to a center of codes (mid, mid, mid) at (10, 10), read
		// through the lane file as the kernel does.
		code := func(l, a, b int32, x, y int, invS2 float64) int64 {
			dw := newFxWeights(invS2, cw)
			var lf fxLaneFile
			lf.load([]fxCenter{{l: mid << colorFrac, a: mid << colorFrac, b: mid << colorFrac,
				x: 10 << coordFrac, y: 10 << coordFrac}}, []int32{0})
			xt := make([]int64, fxLanes)
			lf.xTerms(xt, x, x+1, dw)
			lf.yTerms(y, dw)
			return lf.nearestCoded(l, a, b, int32(dw.wL), &cw, (*[fxLanes]int64)(xt)) >> 4
		}
		if c := code(mid, mid, mid, 10, 10, 0.1); c != 0 {
			t.Errorf("bits=%d: self distance code %d", bits, c)
		}
		if c := code(top, 0, top, 1000, 1000, 1); c != cw.max {
			t.Errorf("bits=%d: far code %d, want saturation at %d", bits, c, cw.max)
		}
		if c := cw.distCode(distFullScale - 1); c != cw.max-1 {
			t.Errorf("bits=%d: code %d just below full scale, want %d", bits, c, cw.max-1)
		}
		if c := cw.distCode(distFullScale); c != cw.max {
			t.Errorf("bits=%d: code %d at full scale, want %d", bits, c, cw.max)
		}
		prev := int64(0)
		for l := mid; l <= top; l++ {
			c := code(l, mid, mid, 10, 10, 0.1)
			if c < prev {
				t.Fatalf("bits=%d: code %d at L code %d, below %d one step nearer", bits, c, l, prev)
			}
			prev = c
		}
		if near, far := code(mid+top/25, mid, mid, 10, 10, 0.1), code(top, mid, mid, 10, 10, 0.1); far <= near {
			t.Errorf("bits=%d: codes not monotone: near %d, far %d", bits, near, far)
		}
	}
}

// TestDatapathNarrowWidthChangesMoreThanWide: the coded datapath departs
// from the served exact kernel's boundaries more at 4 bits than at 10.
func TestDatapathNarrowWidthChangesMoreThanWide(t *testing.T) {
	im := goldenScene(t)
	mask := func(d DatapathKind) []bool {
		p := DefaultParams(64, 0.5)
		p.Datapath = d
		r, err := Segment(im, p)
		if err != nil {
			t.Fatal(err)
		}
		return r.Labels.BoundaryMask()
	}
	exact := mask(Fixed)
	diff := func(dp DatapathKind) int {
		d := 0
		for i, b := range mask(dp) {
			if b != exact[i] {
				d++
			}
		}
		return d
	}
	if d4, d10 := diff(Coded(4)), diff(Coded(10)); d4 <= d10 {
		t.Fatalf("4-bit codes (%d boundary diffs) no further from the exact kernel than 10-bit (%d)", d4, d10)
	}
}

// TestServedCodesMatchConvert: the served colour conversion, width 0
// read from the unit's table image, packs Convert's 8-bit codes — the
// unit's step-by-step arithmetic — for every pixel of a frame of random
// colours, and the coded width 8 packs the same words.
func TestServedCodesMatchConvert(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	im := imgio.NewImage(256, 256)
	for i := range im.C0 {
		im.C0[i], im.C1[i], im.C2[i] = uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256))
	}
	conv := fixedConverter()
	served := slices.Clone(convertLabCodes(im, 0, NewScratch()))
	coded := convertLabCodes(im, 8, NewScratch())
	for i, word := range served {
		l, a, b := conv.Convert(im.C0[i], im.C1[i], im.C2[i])
		if want := packLab(uint16(l), uint16(a), uint16(b)); word != want || coded[i] != want {
			t.Fatalf("pixel %d: width 0 word %#x, width 8 word %#x, Convert's %#x", i, word, coded[i], want)
		}
	}
}

// TestDistanceScale pins the scale of the Go lane kernel's distance to
// Equation 5 at every code width. Each draw takes a pixel's codes and
// position, a centre (Q8.8 colours, Q8 coordinates), compactness m in
// [0.1, 10] and grid interval S in [4, 204]. D² is Equation 5 in float64
// on the same codes read as Lab units, L·100/(2^w−1) and a or b divided
// by 2^(w−8), minus 128, with the centre's colour read as its rounded
// codes, as the kernel reads it. The kernel's Q4 distance d must satisfy
// |d − 16·D²| ≤ 3 + 16·D²/1024 + (dx² + dy²)/8192: the shifts truncate
// three terms, and the weights are rounded to Q0.16.
func TestDistanceScale(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	worst := 0.0
	for _, dp := range allDatapaths()[1:] {
		cw := newCodeWidth(dp.codeBits())
		top := int32(cw.max)
		lab := func(l, a, b int32) (float64, float64, float64) {
			return float64(l) * 100 / float64(cw.max), float64(a)/cw.abScale - 128, float64(b)/cw.abScale - 128
		}
		for i := 0; i < 20000; i++ {
			m, s := 0.1*math.Pow(100, rng.Float64()), 4+200*rng.Float64()
			dw := newFxWeights(m*m/(s*s), cw)
			c := fxCenter{
				l: rng.Int31n(top*colorOne + 1), a: rng.Int31n(top*colorOne + 1), b: rng.Int31n(top*colorOne + 1),
				x: rng.Int63n(400*coordOne + 1), y: rng.Int63n(400*coordOne + 1),
			}
			pl, pa, pb := rng.Int31n(top+1), rng.Int31n(top+1), rng.Int31n(top+1)
			px, py := rng.Intn(401), rng.Intn(401)

			var lf fxLaneFile
			lf.load([]fxCenter{c}, []int32{0})
			xt := make([]int64, fxLanes)
			lf.xTerms(xt, px, px+1, dw)
			lf.yTerms(py, dw)
			d := lf.dist(0, pl, pa, pb, int32(dw.wL), cw.abShift, (*[fxLanes]int64)(xt))

			l1, a1, b1 := lab(pl, pa, pb)
			l2, a2, b2 := lab(c.codes())
			dx, dy := float64(px)-float64(c.x)/coordOne, float64(py)-float64(c.y)/coordOne
			d2 := (l1-l2)*(l1-l2) + (a1-a2)*(a1-a2) + (b1-b2)*(b1-b2) + m*m/(s*s)*(dx*dx+dy*dy)
			budget := 3 + 16*d2/1024 + (dx*dx+dy*dy)/8192
			if e := math.Abs(float64(d) - 16*d2); e > budget {
				t.Fatalf("%v, m %g, S %g, pixel (%d, %d, %d) at (%d, %d), centre %+v: d %d, 16·D² %g, budget %g",
					dp, m, s, pl, pa, pb, px, py, c, d, 16*d2, budget)
			} else {
				worst = max(worst, e/budget)
			}
		}
	}
	t.Logf("distance scale: the largest error is %.2f of its budget", worst)
}

// TestVisits holds visits, the band's O(1) test of whether a pass
// visits a tile, to a pixel-by-pixel search of the tile for its subset,
// on every scheme but Hashed, at k 1–12 and 3072, on tiles of up to
// 12×12 pixels anywhere in frames of up to 64 rows.
func TestVisits(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20000; trial++ {
		scheme := []Scheme{Interleaved, Rows, Blocks}[rng.Intn(3)]
		k := 1 + rng.Intn(12)
		if rng.Intn(8) == 0 {
			k = 3072
		}
		h := 1 + rng.Intn(64)
		x0, y0 := rng.Intn(64), rng.Intn(h)
		x1, y1 := x0+rng.Intn(13), y0+rng.Intn(min(13, h-y0+1))
		subset := rng.Intn(k)
		want := false
		for y := y0; y < y1 && !want; y++ {
			for x := x0; x < x1 && !want; x++ {
				want = subsetOf(scheme, x, y, 64+12, h, k) == subset
			}
		}
		if got := visits(scheme, x0, x1, y0, y1, h, subset, k); got != want {
			t.Fatalf("%v, k %d, subset %d, tile [%d, %d)×[%d, %d) of %d rows: visits %v, want %v",
				scheme, k, subset, x0, x1, y0, y1, h, got, want)
		}
	}
}
