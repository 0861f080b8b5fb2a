package sslic

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"sslic/internal/dataset"
	"sslic/internal/imgio"
	"sslic/internal/slic"
)

// goldenLabelsSHA256 is the SHA-256 of the label map produced by the
// default float64 configuration on the golden scene. It pins the exact
// segmentation output: any refactor that changes labels — intentionally
// or not — must update this constant, making silent output drift
// impossible. The hash is identical for every Workers value per the
// determinism contract of parallel_test.go (float64 arithmetic in Go is
// IEEE-754-exact, so the value is stable across conforming platforms).
const goldenLabelsSHA256 = "1623e5d1261982a00ed6875c811bd33ba109245c9ac70e9fbf4a8dbc44468d30"

// goldenFixedLabelsSHA256 pins the fixed-datapath output of the same
// scene. The integer hot loop makes the run bit-identical for every
// worker count by construction (exact sigma merge), so a single
// constant covers the whole TileWorkers sweep; it is also
// platform-independent, carrying no floating-point arithmetic at all
// past the LUT construction.
const goldenFixedLabelsSHA256 = "7ece6671d83c89cf3b66f3af52226f4061287851c9373f5d59c19f681ed512a9"

// goldenRow is one pinned configuration of the golden scene: a
// DefaultParams(64, 0.5) run with mod applied. Every worker count the
// row runs must produce the same labels; the serial run (TileWorkers 1,
// which every row includes) must also reproduce the Stats digest.
type goldenRow struct {
	name     string
	datapath DatapathKind
	mod      func(*Params)
	// warm seeds the run with the centers of the serial cold run of the
	// same row (warm off) and FullIters 3 — the video pipeline's
	// warm-start path.
	warm    bool
	workers []int
	labels  string // label-map SHA-256
	stats   string // statsDigest of the TileWorkers 1 run
}

// goldenRows covers every control path of the segmenters: both PPA
// datapaths, CPA and SLIC, every subset scheme, preemption, warm start,
// the software center update, the fixed datapath's coded widths and the
// Threshold early stop. Every value but the coded rows' was computed
// before the segmenters were folded into one pass driver and must
// survive any refactor unchanged. (CPA and SLIC ignore TileWorkers, so
// they run serially.)
var goldenRows = []goldenRow{
	{name: "float", workers: []int{1, 4, -1}, labels: goldenLabelsSHA256,
		stats: "calcs=1446250 skipped=0 saved=0 updates=1260 passes=20 converged=false moves=2007c0636f6deafd"},
	{name: "fixed", datapath: Fixed, workers: []int{1, 2, 3, 8}, labels: goldenFixedLabelsSHA256,
		stats: "calcs=1446250 skipped=0 saved=0 updates=1260 passes=20 converged=false moves=103cd2ea41e62699"},
	// The CPA's stats were re-pinned when a pass began to report its own
	// subset's size: the 63 centers split 32 + 31, not 31 + 31, so 630
	// updates and residuals averaged over 32 centers on even passes.
	{name: "cpa", mod: func(p *Params) { p.Arch = CPA }, workers: []int{1},
		labels: "bb6b7dc9cfb657bfa9490ee7b55acd2cf2af23191d3dfb0be10efe429cf4bd8b",
		stats:  "calcs=708024 skipped=0 saved=0 updates=630 passes=20 converged=false moves=0d8a27b7c9f48502"},
	// The reference SLIC, its SLICO variant and its Threshold stop.
	{name: "slic", mod: func(p *Params) { p.Arch, p.SubsampleRatio = SLIC, 1 }, workers: []int{1},
		labels: "eebc728ed627f1fbb72772bffd05e7a8312cf286e150286d053fd372aaf44c78",
		stats:  "calcs=706759 skipped=0 saved=0 updates=630 passes=10 converged=false moves=d553242fd94ccf20"},
	{name: "slic/slico", mod: func(p *Params) {
		p.Arch, p.SubsampleRatio = SLIC, 1
		p.AdaptiveCompactness = true
	}, workers: []int{1},
		labels: "00e9139886953b42390a74b00ca1576063812f96bbc1c60e9a20699b440cd97e",
		stats:  "calcs=701408 skipped=0 saved=0 updates=630 passes=10 converged=false moves=59eb4092325e6fea"},
	{name: "slic/threshold", mod: func(p *Params) {
		p.Arch, p.SubsampleRatio = SLIC, 1
		p.Threshold = 0.5
	}, workers: []int{1},
		labels: "24ae8ac05f570219dd2b414c69ee81d5cabfa854deae9bcfa70590d84aa75107",
		stats:  "calcs=565984 skipped=0 saved=0 updates=504 passes=8 converged=true moves=3fb241929eee1237"},
	{name: "float/rows", mod: func(p *Params) { p.Scheme = Rows }, workers: []int{1, 3},
		labels: "b7e79a70d1bea93012e154564f0849c78552f632f8845e5151571569dcce3578",
		stats:  "calcs=1446250 skipped=0 saved=0 updates=1260 passes=20 converged=false moves=57a7bba4894d0d9f"},
	{name: "float/blocks", mod: func(p *Params) { p.Scheme = Blocks }, workers: []int{1, 3},
		labels: "66ca0fe22b406f310efa7734ff9be4ea073f8ff04de91a7fbc8977fdd2957b42",
		stats:  "calcs=1446250 skipped=0 saved=0 updates=1260 passes=20 converged=false moves=e6abf66ff7bd7a29"},
	{name: "float/hashed", mod: func(p *Params) { p.Scheme = Hashed }, workers: []int{1, 3},
		labels: "539da6e0ffb251e9bfaa254e0cc84086c37b68f61d238e18452bfcfd9854de74",
		stats:  "calcs=1446250 skipped=0 saved=0 updates=1260 passes=20 converged=false moves=fa750c5c8919fbcd"},
	{name: "fixed/rows", datapath: Fixed, mod: func(p *Params) { p.Scheme = Rows }, workers: []int{1, 3},
		labels: "e4daebea1c191ec60a49d4b77da099f44f70c2ca7c3745a665c4dc561141b59c",
		stats:  "calcs=1446250 skipped=0 saved=0 updates=1260 passes=20 converged=false moves=b6ec53e7f2ea5b86"},
	{name: "fixed/blocks", datapath: Fixed, mod: func(p *Params) { p.Scheme = Blocks }, workers: []int{1, 3},
		labels: "b92a641ff0609208d5d885d3dd6a33d801d18bc396a6f6dd57c13b601d764e31",
		stats:  "calcs=1446250 skipped=0 saved=0 updates=1260 passes=20 converged=false moves=e5513adedf22aaa1"},
	{name: "fixed/hashed", datapath: Fixed, mod: func(p *Params) { p.Scheme = Hashed }, workers: []int{1, 3},
		labels: "aca0701ce67fc39ec5676813b59646fea4ec095a8295cffb0005b268cd0d0a71",
		stats:  "calcs=1446250 skipped=0 saved=0 updates=1260 passes=20 converged=false moves=db3df29973b5155c"},
	{name: "float/preemptive", mod: func(p *Params) { p.Preemptive = true }, workers: []int{1, 3},
		labels: "51836e2aa2f8396b2d336251de54c55e317e3a1ba48a475963c9f7a4b4b8a690",
		stats:  "calcs=1411879 skipped=36 saved=34335 updates=1260 passes=20 converged=false moves=72a586ed69b99294"},
	{name: "fixed/preemptive", datapath: Fixed, mod: func(p *Params) { p.Preemptive = true }, workers: []int{1, 3},
		labels: "04caf26a526ac86994eadab6dcee8452f2df2d3a06dbd4f1eaae155eb51d3b38",
		stats:  "calcs=1410347 skipped=35 saved=35865 updates=1260 passes=20 converged=false moves=0ba023d47944c069"},
	// At m = 1e7 the spatial weight is ~2.2e16, so any squared offset
	// past 422 (Q8 units²) saturates: nearly every spatial term in the
	// run is spatSaturated, and labels fall to the colour terms and the
	// first-candidate tie rule. Computed on the pre-lane kernel.
	{name: "fixed/saturated", datapath: Fixed, mod: func(p *Params) { p.Compactness = 1e7 }, workers: []int{1, 3},
		labels: "5f273bd8bca14412ebca26252b2de1cc04c8ce4d1ba8e951f7d1e02a873843d6",
		stats:  "calcs=1446250 skipped=0 saved=0 updates=1260 passes=20 converged=false moves=223023299207ae03"},
	{name: "float/warm", warm: true, workers: []int{1, 3},
		labels: "2fb5f36d2678939cc30b386e4bd67fbb938b3cc3e0a215ceb55efbf206bc49b9",
		stats:  "calcs=433875 skipped=0 saved=0 updates=378 passes=6 converged=false moves=3fbdafe167b226e3"},
	// The §6.1 coded datapath at the hardware's 8 bits and at 5, where
	// the coarse codes tie often.
	{name: "fixed/code8", datapath: Coded(8), workers: []int{1, 3},
		labels: "ae75d08c70ed9b99f23c574c1b1654788e22b681e2efc9313f4639f405fa28d2",
		stats:  "calcs=1446250 skipped=0 saved=0 updates=1260 passes=20 converged=false moves=39784f8cadb34d85"},
	{name: "fixed/code5", datapath: Coded(5), workers: []int{1, 3},
		labels: "b53f7eb1fbde7c35649692fcbbd2b0542a88b08b40c5365193202a6c622d46e6",
		stats:  "calcs=1446250 skipped=0 saved=0 updates=1260 passes=20 converged=false moves=1e41356f33216fe5"},
	// The coded datapath on the other subset schemes (whole rows, row
	// bands, hashed pixels), from a warm start, and preempted at a
	// quarter ratio. Computed on the coded widths' own per-pixel band.
	{name: "fixed/code8/rows", datapath: Coded(8), mod: func(p *Params) { p.Scheme = Rows }, workers: []int{1, 3},
		labels: "94fb8074f70414a7d511815eaa107c323a83a664448b9dd8877c62e65893454b",
		stats:  "calcs=1446250 skipped=0 saved=0 updates=1260 passes=20 converged=false moves=c6df0d27ee02939c"},
	{name: "fixed/code8/blocks", datapath: Coded(8), mod: func(p *Params) { p.Scheme = Blocks }, workers: []int{1, 3},
		labels: "9f2fff6bfbb11f29be3bdb714c1354d3ddc835a7507de208b3cd7fa8a153bfad",
		stats:  "calcs=1446250 skipped=0 saved=0 updates=1260 passes=20 converged=false moves=449c6bebd04dcb8e"},
	{name: "fixed/code8/hashed", datapath: Coded(8), mod: func(p *Params) { p.Scheme = Hashed }, workers: []int{1, 3},
		labels: "020e55672680ea17bcb4631b327c3488049c3adfc8226481ec22de36994cdd1a",
		stats:  "calcs=1446250 skipped=0 saved=0 updates=1260 passes=20 converged=false moves=baa9bf6b3952be71"},
	{name: "fixed/code8/warm", datapath: Coded(8), warm: true, workers: []int{1, 3},
		labels: "b18a8a7426419fa5b318c3128e44c21732b36b5a43f2f41826a924fee20f0856",
		stats:  "calcs=433875 skipped=0 saved=0 updates=378 passes=6 converged=false moves=d9e2b9e050b763a5"},
	{name: "fixed/code5/preemptive", datapath: Coded(5), mod: func(p *Params) {
		p.Preemptive, p.SubsampleRatio = true, 0.25
	}, workers: []int{1, 3},
		labels: "8489715fa340cb619364100535420c6c19531af9d2c02fa2ecc92f92dca15c92",
		stats:  "calcs=1439302 skipped=19 saved=6912 updates=2520 passes=40 converged=false moves=0d2d044742fad4d7"},
	{name: "fixed/warm", datapath: Fixed, warm: true, workers: []int{1, 3},
		labels: "5f60c577d62cae76e3f9ba45701b87786713812ed66573d8be20172ce1310be4",
		stats:  "calcs=433875 skipped=0 saved=0 updates=378 passes=6 converged=false moves=4eea7100f490d969"},
	{name: "float/software-update", mod: func(p *Params) { p.SoftwareCenterUpdate = true }, workers: []int{1, 3},
		labels: "31d5ff21ada41a19ea9b4859468cb6caa1849608533500990faa6615b7161cc4",
		stats:  "calcs=1446250 skipped=0 saved=0 updates=1260 passes=20 converged=false moves=a4f9708a8624efd5"},
	{name: "float/threshold", mod: func(p *Params) { p.Threshold = 0.5 }, workers: []int{1, 3},
		labels: "ebf522fc4f2d755124d8e7e1959b92709806ba8739c8405575660251f6ecd121",
		stats:  "calcs=723125 skipped=0 saved=0 updates=630 passes=10 converged=true moves=38b6a1e4e53a14e1"},
}

// goldenScene is the fixed-seed synthetic scene every golden row runs.
func goldenScene(t *testing.T) *imgio.Image {
	t.Helper()
	cfg := dataset.DefaultConfig()
	cfg.W, cfg.H = 160, 120
	cfg.Regions = 12
	s, err := dataset.Generate(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	return s.Image
}

// params returns the row's configuration at the given worker count,
// without the warm-start seed.
func (row goldenRow) params(workers int) Params {
	p := DefaultParams(64, 0.5)
	p.Datapath = row.datapath
	if row.mod != nil {
		row.mod(&p)
	}
	p.TileWorkers = workers
	return p
}

// checkGoldenRow runs one row at every pinned worker count and compares
// the label hashes and the serial Stats digest.
func checkGoldenRow(t *testing.T, im *imgio.Image, row goldenRow) {
	t.Helper()
	var init []slic.Center
	if row.warm {
		cold, err := Segment(im, row.params(1))
		if err != nil {
			t.Fatal(err)
		}
		init = cold.Centers
	}
	for _, workers := range row.workers {
		p := row.params(workers)
		if row.warm {
			p.InitialCenters = init
			p.FullIters = 3
		}
		r, err := Segment(im, p)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := labelsSHA256(r.Labels); got != row.labels {
			t.Errorf("workers=%d: label hash %s, want %s", workers, got, row.labels)
		}
		if workers == 1 {
			if got := statsDigest(r.Stats); got != row.stats {
				t.Errorf("stats digest %q, want %q", got, row.stats)
			}
		}
	}
}

// TestGoldenDeterminism is the output-pinning regression test of the
// float64 datapath, CPA and SLIC: every row must hash to its checked-in
// labels at every worker count, serial and parallel alike.
func TestGoldenDeterminism(t *testing.T) {
	im := goldenScene(t)
	for _, row := range goldenRows {
		if row.datapath == Float64 {
			t.Run(row.name, func(t *testing.T) { checkGoldenRow(t, im, row) })
		}
	}
}

// TestGoldenDeterminismFixed pins the fixed-datapath rows the same way.
func TestGoldenDeterminismFixed(t *testing.T) {
	im := goldenScene(t)
	for _, row := range goldenRows {
		if row.datapath != Float64 {
			t.Run(row.name, func(t *testing.T) { checkGoldenRow(t, im, row) })
		}
	}
}

func labelsSHA256(lm *imgio.LabelMap) string {
	h := sha256.New()
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(lm.W))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(lm.H))
	h.Write(hdr[:])
	buf := make([]byte, 4*len(lm.Labels))
	for i, v := range lm.Labels {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(v))
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// statsDigest renders the work counters and convergence record of a
// run: the counters in clear, the residual history as a hash of its
// exact float64 bits.
func statsDigest(st Stats) string {
	h := sha256.New()
	var b [8]byte
	for _, m := range st.MoveHistory {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(m))
		h.Write(b[:])
	}
	return fmt.Sprintf("calcs=%d skipped=%d saved=%d updates=%d passes=%d converged=%t moves=%x",
		st.DistanceCalcs, st.SkippedTiles, st.SavedDistanceCalcs, st.CenterUpdates,
		st.SubsetPasses, st.Converged, h.Sum(nil)[:8])
}

// TestGoldenLabelBufReuse: routing the result through a dirty reused
// buffer must not change the output for either architecture.
func TestGoldenLabelBufReuse(t *testing.T) {
	cfg := dataset.DefaultConfig()
	cfg.W, cfg.H = 96, 64
	cfg.Regions = 8
	s, err := dataset.Generate(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, arch := range []Arch{PPA, CPA} {
		p := DefaultParams(24, 0.5)
		p.Arch = arch
		base, err := Segment(s.Image, p)
		if err != nil {
			t.Fatal(err)
		}
		dirty := imgio.NewLabelMap(96, 64)
		for i := range dirty.Labels {
			dirty.Labels[i] = int32(i % 7)
		}
		p.LabelBuf = dirty
		reused, err := Segment(s.Image, p)
		if err != nil {
			t.Fatal(err)
		}
		if reused.Labels != dirty {
			t.Fatalf("%v: result does not alias the provided buffer", arch)
		}
		if labelsSHA256(base.Labels) != labelsSHA256(reused.Labels) {
			t.Fatalf("%v: reused label buffer changed the output", arch)
		}
		// A mismatched buffer is ignored, not an error.
		p.LabelBuf = imgio.NewLabelMap(10, 10)
		r3, err := Segment(s.Image, p)
		if err != nil {
			t.Fatal(err)
		}
		if r3.Labels == p.LabelBuf {
			t.Fatalf("%v: mismatched buffer was used", arch)
		}
	}
}
