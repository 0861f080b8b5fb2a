package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"sslic/internal/imgio"
	"sslic/internal/sslic"
)

// opts are a run's command-line inputs.
type opts struct {
	seed    int64
	seconds time.Duration
	// smoke shrinks every frame to a thumbnail so the whole benchmark runs
	// in seconds; the test suite uses it to check the report's shape.
	smoke bool
	// setupOnce skips the repeated set-ups that only setup_s needs.
	setupOnce bool
}

// workload is one named input set and the way the benchmark drives it.
type workload struct {
	name string
	// run sets up the system, warms it and measures one timed window of
	// length o.seconds. traced adds the per-layer instrumentation the
	// benchmark can place around the system's public entry points.
	run func(o opts, traced bool) (*outcome, error)
}

var workloads = []workload{
	{"stills", runStills},
	{"streams", runStreams},
	{"hd_pipeline", runHD},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// named is a metric with its name, in report order.
type named struct {
	name string
	m    metric
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one timed window of a workload measured. latMs,
// refSpanS and setupS hold times at the reference speed (speed.go).
type outcome struct {
	tally
	latMs     []float64 // per frame, successful or not
	factors   []float64 // per frame: the reference-speed factor applied
	completed int       // frames that passed every check
	// span is the window's frame time as measured, refSpanS the same
	// time at the reference speed, frame by frame; refCPU is the CPU
	// the reference kernel used inside the window.
	span     time.Duration
	refSpanS float64
	refCPU   time.Duration
	win      window
	heapBase uint64 // live heap with the inputs generated, before set-up
	q        quality
	energyUJ float64 // mean hw-model estimate per completed frame
	setupS   []float64
	// layers holds the per-layer metrics of a traced run, phases its
	// S-SLIC phase totals.
	layers []named
	phases *phaseAcc
	// problems lists failed whole-run consistency checks.
	problems []string
}

func (o *outcome) throughput() float64 {
	if o.refSpanS <= 0 {
		return 0
	}
	return float64(o.completed) / o.refSpanS
}

// frame records one frame's latency, the span of the window it closes
// and the reference-speed factor measured with it.
func (o *outcome) frame(latMs float64, span time.Duration, f float64) {
	o.latMs = append(o.latMs, latMs*f)
	o.factors = append(o.factors, f)
	o.span += span
	o.refSpanS += span.Seconds() * f
}

// cpuMs is the process CPU time over the window without the reference
// kernel's, at the reference speed: scaled by the window's mean factor,
// weighted by time.
func (o *outcome) cpuMs() float64 {
	if o.span <= 0 {
		return 0
	}
	raw := o.win.cpuMs() - float64(o.refCPU)/1e6
	return raw * o.refSpanS / o.span.Seconds()
}

func (o *outcome) perFrame(v float64) float64 {
	if o.attempted == 0 {
		return 0
	}
	return v / float64(o.attempted)
}

// runtimeLayers are the runtime/metrics deltas over the window, per
// attempted frame.
func (o *outcome) runtimeLayers() []named {
	return []named{
		{"runtime.alloc_bytes_per_frame", metric{o.perFrame(o.win.allocBytes()), "bytes"}},
		{"runtime.gc_cycles_per_frame", metric{o.perFrame(o.win.gcCycles()), "count"}},
		{"runtime.gc_cpu_share", metric{o.win.gcCPUShare(), "ratio"}},
	}
}

// phaseAcc sums the S-SLIC phase clocks of every successful run it sees.
// It wraps sslic.SegmentContext for the server's Segment hook, so it is
// called from the pool's workers concurrently.
type phaseAcc struct {
	mu sync.Mutex
	s  phaseSums
}

type phaseSums struct {
	frames, passes                           int
	colorconv, initT, assign, update, otherT time.Duration
	calcs                                    int64
}

func (a *phaseAcc) segment(ctx context.Context, im *imgio.Image, p sslic.Params) (*sslic.Result, error) {
	r, err := sslic.SegmentContext(ctx, im, p)
	if err == nil {
		a.add(r.Stats)
	}
	return r, err
}

func (a *phaseAcc) add(st sslic.Stats) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.s.frames++
	a.s.passes += st.SubsetPasses
	a.s.colorconv += st.ColorConvTime
	a.s.initT += st.InitTime
	a.s.assign += st.AssignTime
	a.s.update += st.UpdateTime
	a.s.otherT += st.OtherTime
	a.s.calcs += st.DistanceCalcs
}

// reset forgets everything seen so far: set-up and warm-up frames are
// not part of the timed window.
func (a *phaseAcc) reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.s = phaseSums{}
}

// phase is one row of the Table 1 split.
type phase struct {
	name string
	ms   float64 // per frame
}

func (a *phaseAcc) sums() phaseSums {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.s
}

func (a *phaseAcc) split() []phase {
	s := a.sums()
	per := func(d time.Duration) float64 {
		if s.frames == 0 {
			return 0
		}
		return float64(d) / 1e6 / float64(s.frames)
	}
	return []phase{
		{"colorconv", per(s.colorconv)},
		{"init", per(s.initT)},
		{"assign", per(s.assign)},
		{"update", per(s.update)},
		{"other", per(s.otherT)},
	}
}

func phaseSum(ps []phase) float64 {
	var s float64
	for _, p := range ps {
		s += p.ms
	}
	return s
}

func (a *phaseAcc) layers() []named {
	var out []named
	for _, p := range a.split() {
		out = append(out, named{"sslic." + p.name + "_ms", metric{p.ms, "ms"}})
	}
	s := a.sums()
	calcsPer, nsPerCalc, passesPer := 0.0, 0.0, 0.0
	if s.frames > 0 {
		calcsPer = float64(s.calcs) / float64(s.frames)
		passesPer = float64(s.passes) / float64(s.frames)
	}
	if s.calcs > 0 {
		nsPerCalc = float64(s.assign) / float64(s.calcs)
	}
	return append(out,
		named{"sslic.distance_calcs_per_frame", metric{calcsPer, "count"}},
		named{"sslic.assign_ns_per_calc", metric{nsPerCalc, "ns"}},
		named{"sslic.subset_passes_per_frame", metric{passesPer, "count"}},
	)
}

// checkPhases records a problem when the S-SLIC phase clocks of the
// window's frames add up to more than the segment time the server
// reported for the same frames: the phases are nested inside that span,
// so a larger sum means a broken clock.
func (o *outcome) checkPhases(segmentMs float64) {
	// The server reports segment time to the microsecond.
	if sum := phaseSum(o.phases.split()); sum > segmentMs+0.001 {
		o.problems = append(o.problems,
			fmt.Sprintf("S-SLIC phase sum %.3f ms/frame exceeds segment time %.3f ms/frame", sum, segmentMs))
	}
}
