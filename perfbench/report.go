package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// spec describes one reported metric.
type spec struct {
	name, unit string
	// higher marks metrics where a larger value is better.
	higher bool
}

// wallTime reports whether the metric is a time or rate, which only
// compares between reports measured on the same kind of machine.
func (s spec) wallTime() bool {
	switch s.unit {
	case "ms", "s", "ns", "fps":
		return true
	}
	return false
}

// endToEndSpecs are reported on every untraced run.
var endToEndSpecs = []spec{
	{"throughput_fps", "fps", true},
	{"latency_p50_ms", "ms", false},
	{"latency_p90_ms", "ms", false},
	{"cpu_ms_per_frame", "ms", false},
	{"boundary_recall", "ratio", true},
	{"est_energy_uj_per_frame", "uJ", false},
	{"peak_heap_mb", "MB", false},
	{"success_rate", "ratio", true},
	{"setup_s", "s", false},
}

// perLayerSpecs are reported on every traced run. A layer the workload
// does not run reads 0.
var perLayerSpecs = []spec{
	{"server.decode_ms", "ms", false},
	{"server.queue_ms", "ms", false},
	{"server.segment_ms", "ms", false},
	{"server.other_ms", "ms", false},
	{"server.response_bytes", "bytes", false},
	{"server.degraded_share", "ratio", false},
	{"server.rejected_share", "ratio", false},
	{"pool.warm_share", "ratio", true},
	{"pipeline.source_ms", "ms", false},
	{"pipeline.segment_ms", "ms", false},
	{"pipeline.sink_ms", "ms", false},
	{"pipeline.queue_high_water", "count", false},
	{"pipeline.reorder_high_water", "count", false},
	{"sslic.colorconv_ms", "ms", false},
	{"sslic.init_ms", "ms", false},
	{"sslic.assign_ms", "ms", false},
	{"sslic.update_ms", "ms", false},
	{"sslic.other_ms", "ms", false},
	{"sslic.assign_share", "ratio", false},
	{"sslic.distance_calcs_per_frame", "count", false},
	{"sslic.assign_ns_per_calc", "ns", false},
	{"sslic.subset_passes_per_frame", "count", false},
	{"sslic.undersegmentation_error", "ratio", false},
	{"runtime.alloc_bytes_per_frame", "bytes", false},
	{"runtime.gc_cycles_per_frame", "count", false},
	{"runtime.gc_cpu_share", "ratio", false},
	{"trace.overhead_p50_ms", "ms", false},
}

func specFor(name string) (spec, bool) {
	for _, list := range [][]spec{endToEndSpecs, perLayerSpecs} {
		for _, s := range list {
			if s.name == name {
				return s, true
			}
		}
	}
	return spec{}, false
}

// table1AssignShare is EXPERIMENTS.md Table 1's measured S-SLIC
// Distance+Min share, the trajectory's starting point.
const table1AssignShare = 0.745

// report is everything one run prints. Its JSON form is the "report"
// line that -compare reads back.
type report struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Seconds  float64           `json:"seconds"`
	Trace    bool              `json:"trace"`
	Host     host              `json:"host"`
	Metrics  map[string]metric `json:"metrics"`
	Samples  int               `json:"latency_samples"`
	// Quartiles are the window's latency q1, median and q3, in ms at the
	// reference speed; Factors are the quartiles of the reference-speed
	// factors applied to the frames (speed.go).
	Quartiles []float64      `json:"latency_quartiles_ms,omitempty"`
	Factors   []float64      `json:"speed_factor_quartiles,omitempty"`
	Failures  map[string]int `json:"failures,omitempty"`
	Problems  []string       `json:"problems,omitempty"`
	Phases    []phaseShare   `json:"phases,omitempty"`

	t tally
}

type phaseShare struct {
	Phase string  `json:"phase"`
	Ms    float64 `json:"ms_per_frame"`
	Share float64 `json:"share"`
}

// endToEnd builds the untraced run's report. The tail percentile is left
// out when the window is too short to support it.
func endToEnd(name string, o opts, out *outcome) *report {
	r := newReport(name, o, false, out)
	set := func(n string, v float64) {
		s, _ := specFor(n)
		r.Metrics[n] = metric{v, s.unit}
	}
	set("throughput_fps", out.throughput())
	set("latency_p50_ms", median(out.latMs))
	if p90, ok := tailPercentile(out.latMs, 0.9); ok {
		set("latency_p90_ms", p90)
	} else {
		r.Problems = append(r.Problems, fmt.Sprintf(
			"latency_p90_ms omitted: %d samples leave fewer than %d beyond the 90th percentile", len(out.latMs), minTail))
	}
	set("cpu_ms_per_frame", out.perFrame(out.cpuMs()))
	br, _ := out.q.means()
	set("boundary_recall", br)
	set("est_energy_uj_per_frame", out.energyUJ)
	set("peak_heap_mb", float64(int64(out.win.peakLive)-int64(out.heapBase))/1e6)
	set("success_rate", 1-out.errorRate())
	set("setup_s", median(out.setupS))
	return r
}

// perLayer builds the traced run's report from a traced window and the
// untraced one measured just before it (for the tracing overhead).
func perLayer(name string, o opts, plain, traced *outcome) *report {
	r := newReport(name, o, true, traced)
	r.t.merge(plain.tally)
	r.Problems = append(r.Problems, plain.problems...)
	for _, s := range perLayerSpecs {
		r.Metrics[s.name] = metric{0, s.unit}
	}
	for _, n := range traced.layers {
		r.Metrics[n.name] = n.m
	}
	split := traced.phases.split()
	sum := phaseSum(split)
	for _, p := range split {
		share := 0.0
		if sum > 0 {
			share = p.ms / sum
		}
		r.Phases = append(r.Phases, phaseShare{p.name, p.ms, share})
		if p.name == "assign" {
			r.Metrics["sslic.assign_share"] = metric{share, "ratio"}
		}
	}
	_, use := traced.q.means()
	r.Metrics["sslic.undersegmentation_error"] = metric{use, "ratio"}
	r.Metrics["trace.overhead_p50_ms"] = metric{median(traced.latMs) - median(plain.latMs), "ms"}
	return r
}

func newReport(name string, o opts, trace bool, out *outcome) *report {
	r := &report{
		Workload: name, Seed: o.seed, Seconds: o.seconds.Seconds(), Trace: trace,
		Host: currentHost(), Metrics: map[string]metric{}, Samples: len(out.latMs),
		Quartiles: quantiles(out.latMs, 4), Factors: quantiles(out.factors, 4),
		Problems: append([]string(nil), out.problems...),
	}
	r.t.merge(out.tally)
	return r
}

// result is the final line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// print writes the human-readable report, the report line and, last,
// the result line.
func (r *report) print(w io.Writer) error {
	r.Failures = r.t.reasons
	fmt.Fprintf(w, "perfbench %s  seed=%d seconds=%g trace=%t\n", r.Workload, r.Seed, r.Seconds, r.Trace)
	h := r.Host
	fmt.Fprintf(w, "host: NumCPU=%d GOMAXPROCS=%d cpu=%q go=%s commit=%s\n",
		h.NumCPU, h.GOMAXPROCS, h.CPUModel, h.GoVersion, h.Commit)
	fmt.Fprintf(w, "frames: attempted=%d failed=%d error_rate=%.4f latency_samples=%d latency_quartiles_ms=%.4g speed_factor_quartiles=%.3f\n",
		r.t.attempted, r.t.failed, r.t.errorRate(), r.Samples, r.Quartiles, r.Factors)
	for reason, n := range r.t.reasons {
		fmt.Fprintf(w, "  failed %-32s %d\n", reason, n)
	}
	specs := endToEndSpecs
	if r.Trace {
		specs = perLayerSpecs
	}
	for _, s := range specs {
		if m, ok := r.Metrics[s.name]; ok {
			fmt.Fprintf(w, "  %-32s %14.4f %s\n", s.name, m.Value, m.Unit)
		}
	}
	if len(r.Phases) > 0 {
		fmt.Fprintln(w, "S-SLIC phase split (Table 1 trajectory):")
		for _, p := range r.Phases {
			fmt.Fprintf(w, "  %-10s %10.3f ms/frame %6.1f%%\n", p.Phase, p.Ms, 100*p.Share)
		}
		if r.Workload == "stills" {
			fmt.Fprintf(w, "  assign share %.1f%% (EXPERIMENTS Table 1 measured S-SLIC: %.1f%%)\n",
				100*r.Metrics["sslic.assign_share"].Value, 100*table1AssignShare)
		}
	}
	for _, p := range r.Problems {
		fmt.Fprintln(w, "PROBLEM:", p)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "report %s\n", line)
	res := result{
		Correct:   r.t.failed == 0 && len(r.Problems) == 0,
		Attempted: r.t.attempted,
		Failed:    r.t.failed,
		Metrics:   r.Metrics,
	}
	line, err = json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// readReport finds the report line in a saved benchmark output.
func readReport(path string) (*report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "report "); ok {
			var r report
			if err := json.Unmarshal([]byte(rest), &r); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			return &r, nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("%s: no report line", path)
}

// compare prints old → new for every metric both reports carry. Wall
// times from different machines are flagged, not diffed.
func compare(oldPath, newPath string, w io.Writer) error {
	a, err := readReport(oldPath)
	if err != nil {
		return err
	}
	b, err := readReport(newPath)
	if err != nil {
		return err
	}
	if a.Workload != b.Workload || a.Trace != b.Trace {
		return fmt.Errorf("reports differ in workload or trace mode: %s/%t vs %s/%t",
			a.Workload, a.Trace, b.Workload, b.Trace)
	}
	same := a.Host.sameMachine(b.Host)
	if !same {
		fmt.Fprintf(w, "HOSTS DIFFER: %+v vs %+v\nwall-time metrics are flagged, not compared\n", a.Host, b.Host)
	}
	var names []string
	for n := range a.Metrics {
		if _, ok := b.Metrics[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		s, _ := specFor(n)
		x, y := a.Metrics[n].Value, b.Metrics[n].Value
		if !same && s.wallTime() {
			fmt.Fprintf(w, "  %-32s %14.4f %14.4f %s  (host differs: not comparable)\n", n, x, y, s.unit)
			continue
		}
		change := "n/a"
		if x != 0 {
			verdict := "worse"
			switch {
			case y == x:
				verdict = "same"
			case (y > x) == s.higher:
				verdict = "better"
			}
			change = fmt.Sprintf("%+.1f%% %s", 100*(y-x)/math.Abs(x), verdict)
		}
		fmt.Fprintf(w, "  %-32s %14.4f %14.4f %s  %s\n", n, x, y, s.unit, change)
	}
	return nil
}
