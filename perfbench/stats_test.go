package main

import (
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{7.5, 1.25, 3.0, 9.0, 4.5}, 4.5},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

// The expected cut points are what Python's statistics.quantiles(xs,
// n=4) returns, the rule the benchmark's spread checks are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want []float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, []float64{2.75, 5.5, 8.25}},
		{[]float64{7.5, 1.25, 3.0, 9.0, 4.5}, []float64{2.125, 4.5, 8.25}},
		{[]float64{2, 1}, []float64{0.75, 1.5, 2.25}},
	} {
		got := quantiles(c.xs, 4)
		if len(got) != len(c.want) {
			t.Fatalf("quantiles(%v) = %v, want %v", c.xs, got, c.want)
		}
		for i := range got {
			if !near(got[i], c.want[i]) {
				t.Errorf("quantiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
	if q := quantiles([]float64{1}, 4); q != nil {
		t.Errorf("quantiles of one sample = %v, want nil", q)
	}
}

func TestP90NeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: the function must sort
		}
		return xs
	}
	if _, ok := tailPercentile(seq(99), 0.9); ok {
		t.Error("p90 of 99 samples reported; only 9 lie beyond it")
	}
	v, ok := tailPercentile(seq(100), 0.9)
	if !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v (supported %t), want 90 supported", v, ok)
	}
	if _, ok := tailPercentile(nil, 0.9); ok {
		t.Error("p90 of no samples reported")
	}

	// The end-to-end report omits an unsupported p90 and says why.
	out := &outcome{latMs: seq(50)}
	out.add("")
	r := endToEnd("stills", opts{}, out)
	if _, ok := r.Metrics["latency_p90_ms"]; ok {
		t.Error("report carries latency_p90_ms from 50 samples")
	}
	if len(r.Problems) == 0 {
		t.Error("report does not explain the missing p90")
	}
}

func TestTallyCountsFailures(t *testing.T) {
	var a tally
	for _, reason := range []string{"", "degraded", "", "status_429", "degraded"} {
		a.add(reason)
	}
	if a.attempted != 5 || a.failed != 3 {
		t.Fatalf("attempted %d failed %d, want 5 and 3", a.attempted, a.failed)
	}
	if a.reasons["degraded"] != 2 || a.reasons["status_429"] != 1 {
		t.Errorf("reasons = %v", a.reasons)
	}
	if !near(a.errorRate(), 0.6) {
		t.Errorf("error rate %v, want 0.6", a.errorRate())
	}
	var b tally
	b.add("")
	b.add("wire_decode")
	a.merge(b)
	if a.attempted != 7 || a.failed != 4 || a.reasons["wire_decode"] != 1 {
		t.Errorf("after merge: %+v", a)
	}
	var none tally
	if none.errorRate() != 0 {
		t.Error("error rate of nothing attempted is not 0")
	}

	// Failures make the result line incorrect and count in success_rate.
	out := &outcome{tally: a}
	r := endToEnd("streams", opts{}, out)
	if got := r.Metrics["success_rate"].Value; !near(got, 3.0/7) {
		t.Errorf("success_rate = %v, want 3/7", got)
	}
}

// Frames measured while the host ran at half the reference speed (factor
// 0.5) count half their measured time.
func TestReferenceSpeedScaling(t *testing.T) {
	out := &outcome{}
	out.frame(80, 100*time.Millisecond, 0.5)
	out.frame(40, 100*time.Millisecond, 1)
	out.add("")
	out.add("")
	out.completed = 2
	out.win.end.cpu = 200 * time.Millisecond
	out.refCPU = 20 * time.Millisecond
	if out.latMs[0] != 40 || out.latMs[1] != 40 {
		t.Errorf("latencies %v, want both 40 ms at the reference speed", out.latMs)
	}
	if got := out.throughput(); !near(got, 2/0.15) {
		t.Errorf("throughput %v, want 2 frames per 0.15 reference-speed seconds", got)
	}
	// 180 ms of program CPU over a window that ran at 0.75 of the
	// reference speed on average.
	if got := out.cpuMs(); !near(got, 135) {
		t.Errorf("cpu %v ms, want 135", got)
	}
}

func TestSlicedPeak(t *testing.T) {
	at := func(s int) time.Duration { return time.Duration(s) * time.Second }
	// Eight 1 s slices. The heap sits at 10, one cycle reads 50 in slice
	// 0, and from 4.5 s it sits at 20 with a 30 in slice 6: slice peaks
	// 50 10 10 10 20 20 30 20, median 20.
	readings := []heapReading{
		{0, 10}, {at(1) / 2, 50}, {at(1) * 3 / 4, 10},
		{at(9) / 2, 20}, {at(6) + at(1)/2, 30}, {at(6) + at(1)*3/4, 20},
		{at(8), 20},
	}
	if got := slicedPeak(readings, at(8)); got != 20 {
		t.Errorf("sliced peak %d, want 20", got)
	}
	if got := slicedPeak([]heapReading{{0, 7}, {at(1), 7}}, at(1)); got != 7 {
		t.Errorf("sliced peak of a flat heap %d, want 7", got)
	}
}

func TestSpeedFactor(t *testing.T) {
	sp, err := newSpeed()
	if err != nil {
		t.Fatal(err)
	}
	f := sp.factor()
	if f <= 0 || math.IsInf(f, 0) {
		t.Errorf("factor %v", f)
	}
	if got := sp.kernelCPU(); got <= 0 || !near(f, float64(refNominal)/float64(got)) {
		t.Errorf("kernel CPU %v does not match factor %v", got, f)
	}
}

func TestStreamIDsLandOnDifferentShards(t *testing.T) {
	shard := func(id string) uint32 {
		h := fnv.New32a()
		h.Write([]byte(id))
		return h.Sum32() % serverWorkers
	}
	if shard(streamIDs[0]) == shard(streamIDs[1]) {
		t.Errorf("streams %v share a pool shard", streamIDs)
	}
}

func TestCompareFlagsWallTimeAcrossHosts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, cpus int, fps float64) string {
		r := &report{
			Workload: "streams", Host: host{NumCPU: cpus, GOMAXPROCS: cpus, CPUModel: "x"},
			Metrics: map[string]metric{
				"throughput_fps":  {fps, "fps"},
				"boundary_recall": {0.9, "ratio"},
			},
		}
		var b strings.Builder
		if err := r.print(&b); err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, same, other := write("a", 2, 10), write("b", 2, 12), write("c", 8, 40)
	var b strings.Builder
	if err := compare(a, same, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "+20.0%") || strings.Contains(b.String(), "not comparable") {
		t.Errorf("same-host compare:\n%s", b.String())
	}
	b.Reset()
	if err := compare(a, other, &b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	if !strings.Contains(got, "HOSTS DIFFER") || !strings.Contains(got, "throughput_fps") ||
		!strings.Contains(got, "not comparable") || strings.Contains(got, "+300.0%") {
		t.Errorf("cross-host compare did not flag wall time:\n%s", got)
	}
}
