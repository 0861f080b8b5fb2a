// Package sslic implements Subsampled SLIC (S-SLIC), the paper's primary
// contribution (§3): at each iteration only a subset of the image pixels
// (or of the superpixel centers) is used to update the cluster state, in
// round-robin order over equal-size subsets — an ordered-subsets /
// stochastic-gradient style acceleration that cuts distance computations
// and memory bandwidth while preserving convergence.
//
// Two dataflow architectures are provided (§4.2), and the reference
// SLIC of §2 runs on the same pass driver:
//
//   - PPA (pixel perspective): each visited pixel evaluates the 9
//     spatially closest initial centers from a precomputed static tiling
//     and claims the nearest; superpixel sigma accumulators are updated
//     on the fly. Reads the image once per pass.
//   - CPA (center perspective): each updated center scans its 2S×2S patch
//     like original SLIC; overlapping patches re-read pixels ~4×.
//   - SLIC (Achanta et al.; Figure 1a): every center scans its 2S×2S
//     patch each iteration, then every center is recomputed from the
//     whole image. SLICO's per-cluster colour scale is an option of it.
//
// The package also exposes the operation-count and DRAM-traffic analysis
// behind Table 2 and the preemptive per-cluster early-halt extension the
// paper cites as composable future work (§8).
package sslic

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"sslic/internal/faults"
	"sslic/internal/imgio"
	"sslic/internal/slic"
	"sslic/internal/telemetry"
)

// Arch selects the dataflow architecture of §4.2, or the reference
// SLIC of §2.
type Arch int

const (
	// PPA is the pixel perspective architecture, the paper's choice.
	PPA Arch = iota
	// CPA is the center perspective architecture baseline.
	CPA
	// SLIC is the original windowed algorithm of §2, which S-SLIC
	// subsamples. It runs at SubsampleRatio 1 only.
	SLIC
)

// String returns the paper's name for the architecture.
func (a Arch) String() string {
	switch a {
	case CPA:
		return "CPA"
	case SLIC:
		return "SLIC"
	default:
		return "PPA"
	}
}

// Scheme selects how pixels (PPA) or centers (CPA) are split into
// subsets — the "different subsampling mechanisms" the paper explores.
type Scheme int

const (
	// Interleaved assigns pixel (x, y) to subset (x+y) mod k: diagonal
	// stripes, a checkerboard for k=2. Spatially uniform, the default.
	Interleaved Scheme = iota
	// Rows assigns by y mod k: horizontal stripe interleave, the most
	// DRAM-friendly streaming pattern.
	Rows
	// Blocks splits the image into k contiguous horizontal bands. The
	// spatially worst choice — included to show why subset design matters
	// for convergence (cf. the OS-EM subset balance requirement).
	Blocks
	// Hashed assigns by a pixel-position hash: an unstructured
	// stochastic-gradient-like subset.
	Hashed
)

// String names the scheme.
func (s Scheme) String() string {
	switch s {
	case Rows:
		return "rows"
	case Blocks:
		return "blocks"
	case Hashed:
		return "hashed"
	default:
		return "interleaved"
	}
}

// DatapathKind selects the arithmetic of the PPA hot loop. There are
// three kinds: the float64 reference, the fixed datapath the server
// serves, and that fixed datapath at one of §6.1's coded widths. Every
// value has one name, which String writes and ParseDatapath reads:
// float64, fixed, coded4 … coded10.
type DatapathKind int

const (
	// Float64 is the reference datapath: float64 CIELAB conversion and
	// Equation-5 distances, the oracle the fixed path is tested against.
	Float64 DatapathKind = iota
	// Fixed is the paper's hardware datapath (§4.3, §6.1): 8-bit Lab codes
	// from the internal/lut Color Conversion Unit (gamma LUT + PWL cube
	// root) and exact integer distance/accumulator arithmetic. Center sums
	// use exact integer accumulators, so tiled runs are bit-identical for
	// every TileWorkers value, not just per worker count.
	Fixed
)

// Coded returns the fixed datapath at the reduced precision §6.1's
// bit-width exploration sweeps: colour codes and saturating distance
// codes of the given width, 4 to 10 bits (8 is the hardware's). A coded
// datapath's value is its width; a width outside 4–10 returns a value
// Validate rejects.
func Coded(bits int) DatapathKind {
	if bits < minCodeBits || bits > maxCodeBits {
		return -1
	}
	return DatapathKind(bits)
}

// codeBits is the code width of a coded datapath, and 0 for every other
// value: the width the fixed kernel runs at, where 0 is the served
// arithmetic.
func (d DatapathKind) codeBits() int {
	if d < minCodeBits || d > maxCodeBits {
		return 0
	}
	return int(d)
}

// valid reports whether d is one of the datapaths.
func (d DatapathKind) valid() bool {
	return d == Float64 || d == Fixed || d.codeBits() != 0
}

// String names the datapath: float64, fixed or coded<width>.
func (d DatapathKind) String() string {
	switch {
	case d == Float64:
		return "float64"
	case d == Fixed:
		return "fixed"
	case d.valid():
		return "coded" + strconv.Itoa(int(d))
	}
	return "DatapathKind(" + strconv.Itoa(int(d)) + ")"
}

// ParseDatapath reads a datapath's name as String writes it, and
// nothing else: no other case, no leading zero, no sign.
func ParseDatapath(s string) (DatapathKind, error) {
	d := Float64
	if s == "fixed" {
		d = Fixed
	} else if w, ok := strings.CutPrefix(s, "coded"); ok {
		bits, _ := strconv.Atoi(w)
		d = Coded(bits)
	}
	if !d.valid() || d.String() != s {
		return Float64, fmt.Errorf("sslic: unknown datapath %q (want float64, fixed or coded%d to coded%d)", s, minCodeBits, maxCodeBits)
	}
	return d, nil
}

// Params configures an S-SLIC run.
type Params struct {
	// K is the requested superpixel count.
	K int
	// Compactness is m in Equation 5.
	Compactness float64
	// FullIters is the number of full-image-equivalent iterations; the
	// run performs FullIters × Subsets subset passes so every
	// configuration visits each pixel the same number of times.
	FullIters int
	// Threshold stops early when the mean per-center movement in a pass
	// falls below it (0 disables).
	Threshold float64
	// SubsampleRatio is 1/Subsets: 1 disables subsampling, 0.5 and 0.25
	// are the paper's S-SLIC(0.5) and S-SLIC(0.25).
	SubsampleRatio float64
	// Arch selects PPA, CPA or SLIC.
	Arch Arch
	// Scheme selects the subset construction.
	Scheme Scheme
	// PerturbCenters applies the 3×3 gradient perturbation at init.
	PerturbCenters bool
	// EnforceConnectivity runs the final stray-pixel pass, which absorbs
	// every component smaller than S²/4 (minRegionDivisor).
	EnforceConnectivity bool
	// AdaptiveCompactness enables the SLICO variant of the original
	// authors' release: instead of one global m, every superpixel
	// normalizes its color distance by the largest color distance
	// observed in the cluster during the previous iteration, making the
	// compactness parameter-free and the superpixel shapes uniform
	// across textured and smooth regions. SLIC only.
	AdaptiveCompactness bool
	// Datapath selects the hot-loop arithmetic: Float64 (the default) is
	// the reference implementation, Fixed runs the paper's integer LUT
	// datapath as the server serves it, and Coded(w) runs that datapath
	// at §6.1's code width w. Every value but Float64 is PPA only; see
	// DatapathKind.
	Datapath DatapathKind
	// Preemptive enables the per-cluster early halt of Preemptive SLIC
	// (Neubert & Protzel, ICPR 2014) composed with subsampling: tiles
	// whose 9 candidate centers have all stopped moving are skipped.
	Preemptive bool
	// PreemptThreshold is the per-center movement (pixels, L1) below
	// which a center counts as settled. Zero selects 0.5.
	PreemptThreshold float64
	// InitialCenters seeds the superpixel centers instead of grid
	// initialization — the warm-start path video pipelines use to carry
	// centers across frames. Length must equal the effective K (the
	// center grid size for the image and K). PPA only: the CPA and SLIC
	// always seed on the grid.
	InitialCenters []slic.Center
	// TileWorkers sets the number of goroutines for the PPA cluster-update
	// pass: 0 or 1 runs serially, n > 1 uses n workers, -1 uses
	// runtime.GOMAXPROCS(0). Tile rows are partitioned into contiguous
	// bands with per-band sigma accumulators merged in fixed band order,
	// so labels are deterministic for a given worker count. On the
	// Float64 datapath center coordinates can differ from the serial path
	// in the last floating-point bits because summation order changes; on
	// the Fixed datapath the integer accumulators are exactly
	// associative, so output is bit-identical for EVERY worker count.
	TileWorkers int
	// LabelBuf optionally supplies a preallocated label map that the run
	// writes its result into instead of allocating a fresh one — the
	// buffer-reuse hook streaming pipelines use to keep the per-frame hot
	// loop allocation-free. It must match the image dimensions (a
	// mismatched buffer is ignored and a new map is allocated); prior
	// contents are overwritten. The returned Result.Labels aliases it.
	LabelBuf *imgio.LabelMap
	// Metrics, when non-nil, records the run into a telemetry registry:
	// per-pass latency and residual, distance-computation counters, and
	// whole-run latency. See NewMetrics. nil disables recording.
	Metrics *Metrics
	// Scratch optionally supplies reusable working memory — Lab planes,
	// gradient map, accumulators, connectivity runs — so steady-state
	// streams segment without per-frame buffer allocations (the Lab
	// planes alone are 24 bytes/pixel on the float64 datapath, 4 on the
	// fixed one). A Scratch must not be shared by concurrent runs: give
	// each worker its own and reuse it across frames. nil allocates
	// fresh buffers per run (the one-shot path).
	Scratch *Scratch
	// SoftwareCenterUpdate selects the paper's CPU software organization
	// for the center update phase: after every subset pass, a separate
	// full-image accumulation recomputes all centers from the current
	// labels (this is what Table 1 profiles — its cost grows with the
	// subset count, 10.2%→17.9%). The default (false) is the
	// hardware-faithful fused path, where sigma accumulators are updated
	// inside the cluster-update pass and only the averages are computed
	// afterwards.
	SoftwareCenterUpdate bool
}

// DefaultParams mirrors the paper's evaluation setup: m=10, 10 full
// iterations, PPA with interleaved subsets at the given ratio.
func DefaultParams(k int, ratio float64) Params {
	return Params{
		K:                   k,
		Compactness:         10,
		FullIters:           10,
		SubsampleRatio:      ratio,
		Arch:                PPA,
		Scheme:              Interleaved,
		PerturbCenters:      true,
		EnforceConnectivity: true,
	}
}

// Subsets returns the subset count k = round(1/ratio). Validate bounds
// it by the frame's pixel count, so a valid run's count fits an int.
func (p Params) Subsets() int {
	if p.SubsampleRatio >= 1 {
		return 1
	}
	return int(math.Round(1 / p.SubsampleRatio))
}

// Validate reports whether the parameters are usable for a w×h image.
func (p Params) Validate(w, h int) error {
	if w <= 0 || h <= 0 {
		return fmt.Errorf("sslic: invalid image size %dx%d", w, h)
	}
	if p.K < 1 || p.K > w*h {
		return fmt.Errorf("sslic: K = %d out of range [1, %d]", p.K, w*h)
	}
	if p.Compactness <= 0 {
		return fmt.Errorf("sslic: compactness %g, want > 0", p.Compactness)
	}
	if p.FullIters < 1 {
		return fmt.Errorf("sslic: FullIters = %d, want >= 1", p.FullIters)
	}
	if p.SubsampleRatio <= 0 || p.SubsampleRatio > 1 {
		return fmt.Errorf("sslic: subsample ratio %g out of (0, 1]", p.SubsampleRatio)
	}
	// Counted in float64: near ratio 0, round(1/ratio) overflows int.
	if n := math.Round(1 / p.SubsampleRatio); n > float64(w)*float64(h) {
		return fmt.Errorf("sslic: subsample ratio %g asks for %g subsets, more than the %d pixels of a %dx%d frame",
			p.SubsampleRatio, n, w*h, w, h)
	}
	if p.Arch != PPA && p.Arch != CPA && p.Arch != SLIC {
		return fmt.Errorf("sslic: unknown architecture %d", p.Arch)
	}
	if p.Arch == SLIC && p.SubsampleRatio != 1 {
		return fmt.Errorf("sslic: SLIC does not subsample; SubsampleRatio %g, want 1", p.SubsampleRatio)
	}
	if p.AdaptiveCompactness && p.Arch != SLIC {
		return fmt.Errorf("sslic: adaptive compactness (SLICO) requires the SLIC architecture")
	}
	if !p.Datapath.valid() {
		return fmt.Errorf("sslic: unknown datapath %d", p.Datapath)
	}
	if p.Datapath != Float64 {
		if p.Arch != PPA {
			return fmt.Errorf("sslic: datapath %v: the fixed datapath requires the PPA architecture", p.Datapath)
		}
		if p.SoftwareCenterUpdate {
			return fmt.Errorf("sslic: datapath %v: the fixed datapath uses the fused hardware center update; SoftwareCenterUpdate does not apply", p.Datapath)
		}
	}
	if p.InitialCenters != nil {
		if p.Arch != PPA {
			return fmt.Errorf("sslic: warm start (InitialCenters) requires the PPA architecture")
		}
		if nx, ny := slic.CenterGridDims(w, h, p.K); len(p.InitialCenters) != nx*ny {
			return fmt.Errorf("sslic: %d initial centers, want %d", len(p.InitialCenters), nx*ny)
		}
	}
	return nil
}

// Stats extends the SLIC phase accounting with subsampling counters:
// a run's work and time only. The quality proxies of its labels are
// computed from the Result by internal/quality.
type Stats struct {
	slic.Stats
	SubsetPasses int
	// SkippedTiles counts tiles the preemptive extension skipped.
	SkippedTiles int64
	// SavedDistanceCalcs counts Equation 5 evaluations avoided by
	// preemption.
	SavedDistanceCalcs int64
}

// Result is the output of an S-SLIC run. Tiling is shared by every run
// on the same Scratch and geometry, and must not be written.
type Result struct {
	Labels  *imgio.LabelMap
	Centers []slic.Center
	Tiling  *Tiling
	Stats   Stats
}

// Segment runs S-SLIC per Figure 1b (PPA), the CPA variant or the
// reference SLIC of Figure 1a.
func Segment(im *imgio.Image, p Params) (*Result, error) {
	return SegmentContext(context.Background(), im, p)
}

// SegmentContext is Segment with cancellation: the context is checked
// before every subset pass (and once more before the connectivity
// sweep), so a canceled or deadline-expired request returns within one
// subset round rather than running its full iteration budget. The
// partial segmentation state is discarded; the returned error is the
// context's error. This is the deadline-propagation hook the serving
// layer uses to stop paying for requests whose clients have given up.
//
// SegmentContext is the one pass driver of every segmenter, the
// software counterpart of the accelerator's FSM controller: it
// sequences colour conversion, seeding, the round-robin subset passes
// (cluster update, then center update) and the final sweep, whatever
// arithmetic runs underneath. It owns the cancellation checks and fault
// points, the phase clocks, the per-pass Stats, metrics and trace
// events, the Threshold early stop, connectivity (the whole epilogue;
// the quality proxies are internal/quality's, from the Result) and the
// cost charge; a kernel supplies each phase's datapath.
func SegmentContext(ctx context.Context, im *imgio.Image, p Params) (*Result, error) {
	if err := p.Validate(im.W, im.H); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	// The request trace rides the context: each phase below lands one
	// event on the frame's timeline. A nil trace (the untraced hot path)
	// costs one pointer check per phase.
	f := frame{p: p, scr: p.Scratch, tr: telemetry.TraceFrom(ctx), k: p.Subsets()}
	if f.scr == nil {
		f.scr = new(Scratch)
	}
	f.s = slic.GridInterval(im.W, im.H, p.K)
	f.invS2 = p.Compactness * p.Compactness / (f.s * f.s)
	var kern kernel
	switch {
	case p.Arch == SLIC:
		f.scr.slic = slicKernel{cpaKernel: cpaKernel{floatPath: floatPath{frame: f}}}
		kern = &f.scr.slic
	case p.Arch == CPA:
		f.scr.cpa = cpaKernel{floatPath: floatPath{frame: f}}
		kern = &f.scr.cpa
	case p.Datapath != Float64:
		f.scr.fx = fxKernel{frame: f}
		kern = &f.scr.fx
	default:
		f.scr.ppa = ppaKernel{floatPath: floatPath{frame: f}}
		kern = &f.scr.ppa
	}
	var st Stats

	t0 := time.Now()
	kern.convert(im)
	st.ColorConvTime = time.Since(t0)
	f.tr.Emit("colorconv", "sslic", t0, st.ColorConvTime, nil)

	t0 = time.Now()
	tiling := f.scr.tilingFor(im.W, im.H, p.K)
	labels := labelBufOrNew(p.LabelBuf, im.W, im.H)
	kern.seed(tiling, labels)
	st.InitTime = time.Since(t0)
	f.tr.Emit("init", "sslic", t0, st.InitTime, nil)

	totalPasses := p.FullIters * f.k
	// One allocation holds the history of every run up to 1024 passes (a
	// cold served frame runs 20); a longer one grows it by append. The
	// cap keeps the pass count, which a request sets up to 1000 × the
	// frame's pixel count (Validate's bound on the subsets), from sizing
	// the slice before the first pass.
	st.MoveHistory = make([]float64, 0, min(max(totalPasses, 0), 1024))
	for pass := 0; pass < totalPasses; pass++ {
		// Checked once per subset pass: a pass touches ~1/k of the image,
		// so cancellation latency is bounded by one subset round. The
		// fault hook rides the same granularity — an injected failure
		// surfaces between passes, exactly where cancellation would.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := faults.Fire(faults.PointSubsetPass); err != nil {
			return nil, fmt.Errorf("sslic: pass %d: %w", pass, err)
		}
		subset := pass % f.k
		passStart := time.Now()
		calcs, skipped, saved, err := kern.assign(pass, subset)
		if err != nil {
			return nil, err
		}
		st.DistanceCalcs += calcs
		st.SkippedTiles += skipped
		st.SavedDistanceCalcs += saved
		t0 = time.Now()
		st.AssignTime += t0.Sub(passStart)

		move, updated := kern.update(subset)
		st.CenterUpdates += int64(updated)
		st.UpdateTime += time.Since(t0)
		st.SubsetPasses = pass + 1
		st.Iterations = (pass + f.k) / f.k
		residual := move / float64(max(1, updated))
		st.MoveHistory = append(st.MoveHistory, residual)
		passDur := time.Since(passStart)
		p.Metrics.observePass(passDur, pass, totalPasses, residual)
		if f.tr != nil {
			f.tr.Emit("pass", "sslic", passStart, passDur, map[string]any{
				"pass": pass, "subset": subset, "arch": p.Arch.String(), "datapath": p.Datapath.String(),
				"distance_calcs": calcs, "residual": residual, "skipped_tiles": skipped,
			})
		}

		if p.Threshold > 0 && residual < p.Threshold {
			st.Converged = true
			break
		}
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t0 = time.Now()
	centers := kern.finish()
	if p.EnforceConnectivity {
		f.scr.conn.Enforce(labels, int(f.s*f.s)/minRegionDivisor)
		f.tr.Emit("connectivity", "sslic", t0, time.Since(t0), nil)
	}
	st.OtherTime = time.Since(t0)

	dur := time.Since(start)
	p.Metrics.observeRun(dur, st, st.Converged)
	// Charge the request's cost ledger: segmentation wall time, compute
	// time (the summed phase times — on the serial path these equal the
	// trace's per-phase event durations), and the label-map buffer when
	// this run allocated one rather than reusing the caller's.
	if c := telemetry.CostFrom(ctx); c != nil {
		c.AddSegment(dur)
		c.AddCPU(st.Total())
		if p.LabelBuf == nil {
			c.AddAlloc(int64(4 * im.W * im.H))
		}
	}
	return &Result{Labels: labels, Centers: centers, Tiling: tiling, Stats: st}, nil
}

// kernel is one segmenter's datapath under the pass driver: the float64
// PPA reference (ppaKernel), the fixed-point PPA of §4.3/§6.1
// (fxKernel), the CPA baseline (cpaKernel) and the reference SLIC
// (slicKernel). The driver runs each step inside the phase clock it
// belongs to.
type kernel interface {
	// convert is the colour conversion phase.
	convert(im *imgio.Image)
	// seed is the init phase: it places the initial centers —
	// Params.InitialCenters when set, else the grid — and writes the
	// initial labels.
	seed(tiling *Tiling, labels *imgio.LabelMap)
	// assign is the cluster update (distance + argmin) of one subset
	// pass; it returns the distance calcs, preempted tiles and the
	// calcs preemption saved.
	assign(pass, subset int) (calcs, skipped, saved int64, err error)
	// update is the center update of the pass; it returns the summed L1
	// center movement and the number of centers updated.
	update(subset int) (move float64, updated int)
	// finish hands back the final centers in public form.
	finish() []slic.Center
}

// frame is the run state the driver shares with its kernel.
type frame struct {
	p      Params
	scr    *Scratch
	tr     *telemetry.Trace
	tiling *Tiling
	labels *imgio.LabelMap
	k      int     // subset count
	s      float64 // grid interval S
	invS2  float64 // m²/S², the spatial weight of Equation 5
}

// minRegionDivisor sets the connectivity pass's minimum component size,
// S²/4: a quarter of a grid cell, the original SLIC release's choice.
const minRegionDivisor = 4

// preemptThreshold resolves PreemptThreshold's zero default.
func (p *Params) preemptThreshold() float64 {
	if p.PreemptThreshold == 0 {
		return 0.5
	}
	return p.PreemptThreshold
}

// subsetOf reports the subset index of pixel (x, y) under the scheme.
func subsetOf(scheme Scheme, x, y, w, h, k int) int {
	switch scheme {
	case Rows:
		return y % k
	case Blocks:
		return y * k / h
	case Hashed:
		hsh := uint32(x)*0x9E3779B9 + uint32(y)*0x85EBCA6B
		hsh ^= hsh >> 16
		return int(hsh % uint32(k))
	default: // Interleaved
		return (x + y) % k
	}
}

// rowStride returns how a pass over subset visits row y of a tile
// starting at column x0: the first column and the step. The Interleaved
// and Rows schemes admit strided iteration, so a ratio-1/k pass visits
// (and pays for) only ~1/k of the pixels — the bandwidth/compute saving
// S-SLIC exists for. ok is false for a row outside the subset; Hashed
// rows are visited whole and filtered per pixel.
func rowStride(scheme Scheme, x0, y, h, subset, k int) (start, step int, ok bool) {
	if k > 1 {
		switch scheme {
		case Interleaved:
			return x0 + mod(subset-(x0+y), k), k, true
		case Rows:
			return x0, 1, y%k == subset
		case Blocks:
			return x0, 1, y*k/h == subset
		}
	}
	return x0, 1, true
}

// skipTile reports whether preemption skips a tile — every candidate
// center has settled — and the Equation 5 evaluations the skip saves,
// estimated as the tile's subset pixels times its candidates.
func skipTile(preemptive bool, cand []int32, settled []bool, area, k int) (bool, int64) {
	if !preemptive {
		return false, 0
	}
	for _, ci := range cand {
		if !settled[ci] {
			return false, 0
		}
	}
	return true, int64(area / k * len(cand))
}

// sigmaOf is the accumulator register file of the Cluster Update Unit:
// the six fields (L, a, b, x, y, count) the hardware updates with six
// adders. T is the datapath's arithmetic.
type sigmaOf[T float64 | int64] struct {
	l, a, b, x, y T
	n             int
}

// add folds another accumulator into s: one band's partial sums in the
// tiled pass's merge.
func (s *sigmaOf[T]) add(o *sigmaOf[T]) {
	s.l += o.l
	s.a += o.a
	s.b += o.b
	s.x += o.x
	s.y += o.y
	s.n += o.n
}

// sigma is the float64 datapath's accumulator.
type sigma = sigmaOf[float64]

// floatPath is the float64 datapath the PPA reference and the CPA run
// on: CIELAB planes from the reference Equations 1-4 and float centers.
type floatPath struct {
	frame
	lab     *slic.LabImage
	centers []slic.Center
}

func (kn *floatPath) convert(im *imgio.Image) {
	slic.ToLabInto(&kn.scr.lab, im)
	kn.lab = &kn.scr.lab
}

func (kn *floatPath) finish() []slic.Center { return kn.centers }

// ppaKernel is the PPA of Figure 1b on the float64 reference datapath —
// the oracle the fixed datapath is tested against.
type ppaKernel struct {
	floatPath
	acc     []sigma
	settled []bool
	subset  int // the subset the current pass assigns
}

func (kn *ppaKernel) seed(tiling *Tiling, labels *imgio.LabelMap) {
	kn.tiling, kn.labels = tiling, labels
	if kn.p.InitialCenters != nil {
		kn.centers = append([]slic.Center(nil), kn.p.InitialCenters...)
	} else {
		kn.centers = kn.scr.initCenters(kn.lab, kn.p.K, kn.p.PerturbCenters)
	}
	ownCenterFill(labels, tiling, false)
	kn.settled = kn.scr.settledFor(len(kn.centers))
	kn.acc = grow(&kn.scr.pass.acc, len(kn.centers))
}

func (kn *ppaKernel) assign(pass, subset int) (calcs, skipped, saved int64, err error) {
	clear(kn.acc)
	kn.subset = subset
	return runBands(&kn.frame, kn, kn.acc, &kn.scr.pass, pass)
}

// band visits every pixel of the pass's subset within tile rows
// [tyFrom, tyTo), performing the 9-candidate distance + minimum + sigma
// accumulation of the Cluster Update Unit. Returns (distance calcs,
// skipped tiles, saved calcs).
func (kn *ppaKernel) band(acc []sigma, _, tyFrom, tyTo int) (calcs, skippedTiles, saved int64) {
	lab, tiling, centers, labels, settled := kn.lab, kn.tiling, kn.centers, kn.labels, kn.settled
	subset, k, invS2 := kn.subset, kn.k, kn.invS2
	scheme, preemptive, fused := kn.p.Scheme, kn.p.Preemptive, !kn.p.SoftwareCenterUpdate

	w, h := lab.W, lab.H
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

			for y := y0; y < y1; y++ {
				row := y * w
				startX, stepX, ok := rowStride(scheme, x0, y, h, subset, k)
				if !ok {
					continue
				}
				for x := startX; x < x1; x += stepX {
					if k > 1 && scheme == Hashed && subsetOf(scheme, x, y, w, h, k) != subset {
						continue
					}
					i := row + x
					l, a, b := lab.L[i], lab.A[i], lab.B[i]
					best := int32(-1)
					bestD := math.Inf(1)
					for _, ci := range cand {
						d := slic.Distance5(l, a, b, float64(x), float64(y), &centers[ci], invS2)
						calcs++
						if d < bestD {
							bestD = d
							best = ci
						}
					}
					labels.Labels[i] = best
					if fused {
						sg := &acc[best]
						sg.l += l
						sg.a += a
						sg.b += b
						sg.x += float64(x)
						sg.y += float64(y)
						sg.n++
					}
				}
			}
		}
	}
	return calcs, skippedTiles, saved
}

func (kn *ppaKernel) update(int) (float64, int) {
	thresh := kn.p.preemptThreshold()
	if !kn.p.SoftwareCenterUpdate {
		return applySigma(kn.centers, kn.acc, kn.settled, thresh, kn.p.Preemptive), len(kn.centers)
	}
	var prev []slic.Center
	if kn.p.Preemptive {
		prev = append([]slic.Center(nil), kn.centers...)
	}
	move := slic.UpdateCenters(kn.lab, kn.labels, kn.centers)
	for ci := range prev {
		m := math.Abs(kn.centers[ci].X-prev[ci].X) + math.Abs(kn.centers[ci].Y-prev[ci].Y)
		kn.settled[ci] = m < thresh
	}
	return move, len(kn.centers)
}

// applySigma is the Center Update Unit: each superpixel's new 5-D center
// is the average of its sigma accumulator. It returns the summed L1
// center movement in the (x, y) plane and updates the settled flags when
// preemption is active.
func applySigma(centers []slic.Center, acc []sigma, settled []bool, preemptThresh float64, preemptive bool) float64 {
	var move float64
	for ci := range centers {
		sg := acc[ci]
		if sg.n == 0 {
			continue
		}
		n := float64(sg.n)
		c := &centers[ci]
		nx, ny := sg.x/n, sg.y/n
		m := math.Abs(nx-c.X) + math.Abs(ny-c.Y)
		move += m
		c.L, c.A, c.B, c.X, c.Y = sg.l/n, sg.a/n, sg.b/n, nx, ny
		if preemptive {
			settled[ci] = m < preemptThresh
		}
	}
	return move
}

// ownCenterFill labels pixels with their own cell center: every pixel
// for the PPA's static initial assignment (the paper initializes the
// external-memory copy of the assignments before the first pass), or,
// with unclaimedOnly, just the pixels no CPA window claimed. Each row is
// filled in tile runs: column gx covers x in [⌈gx·W/NX⌉, ⌈(gx+1)·W/NX⌉),
// the last run ending at W, which are the bounds Tiling.TileOf's floor
// and clamp give.
func ownCenterFill(labels *imgio.LabelMap, tiling *Tiling, unclaimedOnly bool) {
	w, nx := labels.W, tiling.NX
	for y := 0; y < labels.H; y++ {
		row := labels.Labels[y*w : (y+1)*w]
		first := int32(tiling.TileOf(0, y)) // the row's tile in column 0
		x := 0
		for gx := 0; gx < nx; gx++ {
			end := w
			if gx < nx-1 {
				end = ((gx+1)*w + nx - 1) / nx
			}
			own := first + int32(gx)
			for ; x < end; x++ {
				if !unclaimedOnly || row[x] < 0 {
					row[x] = own
				}
			}
		}
	}
}

// labelBufOrNew returns buf when it matches w×h, else a fresh label map.
// The kernel's seed step overwrites whatever a reused buffer held.
func labelBufOrNew(buf *imgio.LabelMap, w, h int) *imgio.LabelMap {
	if buf == nil || buf.W != w || buf.H != h {
		return imgio.NewLabelMap(w, h)
	}
	return buf
}

// mod returns a mod k in [0, k), also for negative a.
func mod(a, k int) int {
	m := a % k
	if m < 0 {
		m += k
	}
	return m
}
