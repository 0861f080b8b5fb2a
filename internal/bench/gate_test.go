package bench

import (
	"bytes"
	"io"
	"runtime"
	"slices"
	"testing"

	"sslic/internal/bufpool"
	"sslic/internal/dataset"
	"sslic/internal/degrade"
	"sslic/internal/hw"
	"sslic/internal/imgio"
	"sslic/internal/quality"
	"sslic/internal/sslic"
	"sslic/internal/telemetry"
	"sslic/internal/wire"
)

// The perf gate holds every configuration of one small synthetic frame
// to the numbers that do not depend on the host: heap traffic per
// frame, the paper's own units (distance calculations per frame, Table
// 2; energy per frame, Table 4), the cost ledger's buffer charge and two
// quality proxies. Wall time is perfbench's job.

const (
	gateW, gateH, gateK = 240, 160, 64
	// gateRuns is the measured run count of each row. At 4 runs the
	// one-off allocations of the tiled rows' band fan-out could lift
	// tiled_w4 past its allocs/op ceiling.
	gateRuns = 8
	// gateCeiling is the most a reading may exceed its expected value
	// by, as a factor.
	gateCeiling = 1.10
)

// gateReading holds one row's gated values, indexed by the columns
// below; lower is better for each of them.
type gateReading [len(gateColumns)]float64

const (
	allocsPerOp   = iota // heap allocations per frame
	bytesPerOp           // heap bytes per frame
	calcsPerFrame        // distance calculations per frame
	allocBytes           // the cost ledger's buffer charge per frame
	estPJ                // the hw model's energy per frame, in pJ
	emptyClusters        // clusters left without a pixel
	clusterSizeCV        // coefficient of variation of the cluster sizes
)

// gateColumns names the columns in failure messages.
var gateColumns = [...]string{
	"allocs_per_op", "bytes_per_op", "distance_calcs_per_frame",
	"cost.alloc_bytes", "cost.est_pj",
	"quality.empty_clusters", "quality.cluster_size_cv",
}

// gateRow is one configuration: DefaultParams(gateK, ratio) with the
// row's architecture, band count, datapath and degrade level.
type gateRow struct {
	name     string
	arch     sslic.Arch
	ratio    float64
	level    degrade.Level
	workers  int // TileWorkers
	datapath sslic.DatapathKind
	// e2e runs the server's request core around the segmentation:
	// decode a PPM body, segment, RLE-encode the labels. pooled recycles
	// the buffers through a bufpool, as the server does.
	e2e, pooled bool
	want        gateReading
}

// gateRows crosses the paper's two dataflow architectures with its
// subsample ratios (§6's r = 1, 1/2, 1/4), then adds the degrade
// ladder's level 0 and level 2, the band sweep on both datapaths, and
// the request core with and without the buffer pool. A reading fails
// when it exceeds its expected value by more than gateCeiling. Lower an
// expected value when a change improves it; raising one accepts a
// regression. The band sweep must not move any value but the heap
// columns.
var gateRows = []gateRow{
	// allocs/op, bytes/op, calcs/frame, alloc_bytes, est_pj, empty clusters, size CV
	{name: "ppa_r100", ratio: 1.0,
		want: gateReading{17, 1463572, 2923200, 153600, 31489309.06176471, 5, 0.5388982111767942}},
	{name: "ppa_r050", ratio: 0.5,
		want: gateReading{18, 1463834, 2923200, 153600, 36146927.91764706, 6, 0.5593233871090925}},
	{name: "ppa_r025", ratio: 0.25,
		want: gateReading{18, 1464334, 2923200, 153600, 45462165.629411764, 6, 0.5759325921446403}},
	{name: "cpa_r050", arch: sslic.CPA, ratio: 0.5,
		want: gateReading{16, 1779706, 1558250, 153600, 36146927.91764706, 12, 0.7169045507416815}},
	{name: "degrade_l0", ratio: 0.5, level: degrade.Full,
		want: gateReading{18, 1463814, 2923200, 153600, 36146927.91764706, 6, 0.5593233871090925}},
	{name: "degrade_l2", ratio: 0.5, level: degrade.CoarseSubsample,
		want: gateReading{18, 1463820, 1461600, 153600, 23096165.564705882, 5, 0.5473287675971452}},
	{name: "tiled_w1", ratio: 0.5, workers: 1,
		want: gateReading{18, 1463830, 2923200, 153600, 36146927.91764706, 6, 0.5593233871090925}},
	{name: "tiled_w4", ratio: 0.5, workers: 4,
		want: gateReading{128, 1489892, 2923200, 153600, 36146927.91764706, 6, 0.5593233871090925}},
	{name: "tiled_w8", ratio: 0.5, workers: 8,
		want: gateReading{187, 1505434, 2923200, 153600, 36146927.91764706, 6, 0.5593233871090925}},
	{name: "fixed_w1", ratio: 0.5, workers: 1, datapath: sslic.Fixed,
		want: gateReading{19, 689726, 2923200, 153600, 36146927.91764706, 4, 0.5154667002375803}},
	{name: "fixed_w8", ratio: 0.5, workers: 8, datapath: sslic.Fixed,
		want: gateReading{193, 741840, 2923200, 153600, 36146927.91764706, 4, 0.5154667002375803}},
	{name: "e2e_fresh", ratio: 0.5, workers: 1, e2e: true,
		want: gateReading{35, 1599042, 2923200, 268800, 36146927.91764706, 6, 0.5593233871090925}},
	{name: "e2e_pooled", ratio: 0.5, workers: 1, e2e: true, pooled: true,
		want: gateReading{29, 1320362, 2923200, 0, 36146927.91764706, 6, 0.5593233871090925}},
}

// comparePerf returns the columns in which got exceeds want by more
// than the gate allows. A want of 0 admits only 0. skipHeap leaves out
// allocs/op and bytes/op.
func comparePerf(got, want gateReading, skipHeap bool) []int {
	var over []int
	for c := range gateColumns {
		if skipHeap && (c == allocsPerOp || c == bytesPerOp) {
			continue
		}
		if got[c] > want[c]*gateCeiling {
			over = append(over, c)
		}
	}
	return over
}

// ceilingCase is one comparePerf call and the columns it must report.
type ceilingCase struct {
	name      string
	got, want gateReading
	skipHeap  bool
	over      []int
}

func checkCeiling(t *testing.T, cases []ceilingCase) {
	t.Helper()
	for _, c := range cases {
		if got := comparePerf(c.got, c.want, c.skipHeap); !slices.Equal(got, c.over) {
			t.Errorf("%s: comparePerf over columns %v, want %v", c.name, got, c.over)
		}
	}
}

// ceilingBase is a reading with every column set.
var ceilingBase = gateReading{100, 1 << 20, 500_000, 1 << 20, 5e9, 0, 0.25}

// with returns base with column c set to v.
func with(base gateReading, c int, v float64) gateReading {
	base[c] = v
	return base
}

func TestComparePerf(t *testing.T) {
	grown := with(with(ceilingBase, allocsPerOp, 150), calcsPerFrame, 600_000)
	checkCeiling(t, []ceilingCase{
		{name: "identical", got: ceilingBase, want: ceilingBase},
		{name: "count at the ceiling", got: with(ceilingBase, allocsPerOp, 110), want: ceilingBase},
		{name: "alloc and calc growth", got: grown, want: ceilingBase,
			over: []int{allocsPerOp, calcsPerFrame}},
		{name: "heap growth skipped under -race", got: grown, want: ceilingBase, skipHeap: true,
			over: []int{calcsPerFrame}},
		{name: "bytes past the ceiling", got: with(ceilingBase, bytesPerOp, 1<<21), want: ceilingBase,
			over: []int{bytesPerOp}},
		{name: "improvement", got: gateReading{50, 1 << 19, 400_000, 1 << 19, 4e9, 0, 0.20}, want: ceilingBase},
	})
}

func TestComparePerfCostLedger(t *testing.T) {
	pooled := with(ceilingBase, allocBytes, 0)
	checkCeiling(t, []ceilingCase{
		{name: "identical", got: ceilingBase, want: ceilingBase},
		{name: "pJ past the ceiling", got: with(ceilingBase, estPJ, 6e9), want: ceilingBase,
			over: []int{estPJ}},
		{name: "alloc bytes past the ceiling", got: with(ceilingBase, allocBytes, 1<<21), want: ceilingBase,
			over: []int{allocBytes}},
		{name: "pool stays warm", got: pooled, want: pooled},
		{name: "pool miss", got: with(pooled, allocBytes, 4096), want: pooled,
			over: []int{allocBytes}},
	})
}

func TestComparePerfQualityProxies(t *testing.T) {
	checkCeiling(t, []ceilingCase{
		{name: "identical", got: ceilingBase, want: ceilingBase},
		{name: "clusters starve", got: with(ceilingBase, emptyClusters, 2), want: ceilingBase,
			over: []int{emptyClusters}},
		{name: "size CV past the ceiling", got: with(ceilingBase, clusterSizeCV, 0.40), want: ceilingBase,
			over: []int{clusterSizeCV}},
	})
}

// TestPerfGate measures every gate row and checks each of its readings
// against the row's ceiling, plus the cost and zero-copy invariants.
func TestPerfGate(t *testing.T) {
	if testing.Short() {
		t.Skip("segments the gate frame nine times per row")
	}
	cfg := dataset.DefaultConfig()
	cfg.W, cfg.H = gateW, gateH
	sample, err := dataset.Generate(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	// No t.Parallel anywhere here: runtime.MemStats counts the whole process.
	got := make(map[string]gateReading, len(gateRows))
	for _, row := range gateRows {
		t.Run(row.name, func(t *testing.T) {
			r, boundary := measure(t, sample.Image, row)
			got[row.name] = r
			// Under -race the detector's instrumentation allocates on its own.
			for _, c := range comparePerf(r, row.want, raceEnabled) {
				t.Errorf("%s = %.10g, over the ceiling %.10g × %.2f", gateColumns[c], r[c], row.want[c], gateCeiling)
			}
			if r[estPJ] <= 0 || boundary <= 0 {
				t.Errorf("est_pj = %g, boundary pixels = %d; want both positive", r[estPJ], boundary)
			}
			// The label map on every row; the three decoded colour planes
			// too on the request core, unless the pool recycles them all.
			perPixel := 4
			switch {
			case row.pooled:
				perPixel = 0
			case row.e2e:
				perPixel = 7
			}
			if want := float64(perPixel * gateW * gateH); r[allocBytes] != want {
				t.Errorf("cost.alloc_bytes = %g, want %g", r[allocBytes], want)
			}
		})
	}
	fresh, okF := got["e2e_fresh"]
	pooled, okP := got["e2e_pooled"]
	if raceEnabled || !okF || !okP {
		return
	}
	// The zero-copy claim: pooling beats the fresh path, and the pooled
	// request core stays under half of the 109 allocs/op that segmenting
	// alone cost before the buffer pool.
	const prePool = 109
	if pooled[allocsPerOp] >= fresh[allocsPerOp] {
		t.Errorf("e2e_pooled allocs/op = %g, not below e2e_fresh %g", pooled[allocsPerOp], fresh[allocsPerOp])
	}
	if pooled[allocsPerOp]*2 > prePool {
		t.Errorf("e2e_pooled allocs/op = %g, over half the pre-pool %d", pooled[allocsPerOp], prePool)
	}
}

// measure runs row once to warm up, then gateRuns times between two
// MemStats reads. It returns the row's reading and the last run's
// boundary pixel count. Any error fails the test: a zero reading would
// pass every ceiling.
func measure(t *testing.T, frame *imgio.Image, row gateRow) (gateReading, int) {
	t.Helper()
	p := sslic.DefaultParams(gateK, row.ratio)
	p.Arch = row.arch
	p.TileWorkers = row.workers
	p.Datapath = row.datapath
	p = degrade.Apply(p, row.level) // level 0 is the identity
	run := func() (*sslic.Result, int64, error) {
		res, err := sslic.Segment(frame, p)
		return res, int64(4 * frame.W * frame.H), err // one int32 label per pixel
	}
	if row.e2e {
		var pool *bufpool.Pool
		if row.pooled {
			pool = bufpool.New(bufpool.Config{})
		}
		run = requestCore(t, frame, p, pool)
	}
	if _, _, err := run(); err != nil { // fills the pool and lazy tables
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var res *sslic.Result
	var charged int64
	for i := 0; i < gateRuns; i++ {
		var err error
		if res, charged, err = run(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	// The quality columns scan the last run's labels at its center
	// count, as the server scans a served frame's. The segmentation
	// does not run that scan, so neither does the measured window.
	stats, scan := res.Stats, quality.ScanLabels(res.Labels, len(res.Centers))

	hwCfg := hw.DefaultConfig()
	hwCfg.Width, hwCfg.Height, hwCfg.K = frame.W, frame.H, gateK
	hwCfg.SubsampleRatio = p.SubsampleRatio
	hwCfg.Passes = max(stats.SubsetPasses, 1)
	energy, err := hw.Simulate(hwCfg)
	if err != nil {
		t.Fatal(err)
	}
	return gateReading{
		allocsPerOp:   float64((after.Mallocs - before.Mallocs) / gateRuns),
		bytesPerOp:    float64((after.TotalAlloc - before.TotalAlloc) / gateRuns),
		calcsPerFrame: float64(stats.DistanceCalcs),
		allocBytes:    float64(charged),
		estPJ:         energy.EnergyPerFrame * 1e12,
		emptyClusters: float64(scan.EmptyClusters),
		clusterSizeCV: scan.ClusterSizeCV,
	}, scan.BoundaryPixels
}

// requestCore returns one run of the server's request core on frame. It
// charges what the server's cost ledger would: with a pool, the bytes
// the pool had to allocate afresh (none once warm); without one, the
// three decoded colour planes and the label map. A pooled run's label
// map goes back to the pool when the next run starts, so the last
// run's labels stay readable.
func requestCore(t *testing.T, frame *imgio.Image, p sslic.Params, pool *bufpool.Pool) func() (*sslic.Result, int64, error) {
	var body bytes.Buffer
	if err := imgio.EncodePPM(&body, frame); err != nil {
		t.Fatal(err)
	}
	var held *imgio.LabelMap
	return func() (*sslic.Result, int64, error) {
		var alloc imgio.ImageAlloc
		ledger := telemetry.NewCost()
		if pool != nil {
			pool.PutLabelMap(held)
			alloc = pool.ImageAlloc(ledger)
		}
		im, err := imgio.DecodeImageLimitAlloc(bytes.NewReader(body.Bytes()), frame.W*frame.H, alloc)
		if err != nil {
			return nil, 0, err
		}
		pp := p
		charged := int64(3*len(im.C0)) + int64(4*im.W*im.H)
		if pool != nil {
			lbuf, fresh := pool.GetLabelMap(im.W, im.H)
			pp.LabelBuf = lbuf
			charged = ledger.Snapshot().AllocBytes + fresh
		}
		res, err := sslic.Segment(im, pp)
		if err != nil {
			return nil, 0, err
		}
		if err := wire.EncodeRLE(io.Discard, res.Labels); err != nil {
			return nil, 0, err
		}
		if pool != nil {
			pool.PutImage(im)
			held = res.Labels
		}
		return res, charged, nil
	}
}
