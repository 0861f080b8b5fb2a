package main

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestSmokeEveryWorkload runs every workload on thumbnail frames for a
// few seconds, in both modes, and checks that the final line carries
// every metric the mode promises and that every frame passed.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			o := opts{seed: 3, seconds: time.Duration(smokeSeconds * float64(time.Second)), smoke: true}
			rep, err := measure(w, o, trace)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, trace, err)
			}
			var b strings.Builder
			if err := rep.print(&b); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(b.String()), "\n")
			var res map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%t: last line is not JSON: %v", w.name, trace, err)
			}
			if len(res) != 4 {
				t.Errorf("%s trace=%t: result keys %v, want correct, attempted, failed, metrics", w.name, trace, res)
			}
			var r result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d\n%s",
					w.name, trace, r.Correct, r.Attempted, r.Failed, b.String())
			}
			want := endToEndSpecs
			if trace {
				want = perLayerSpecs
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, want %d", w.name, trace, len(r.Metrics), len(want))
			}
			for _, s := range want {
				m, ok := r.Metrics[s.name]
				if !ok || m.Unit != s.unit {
					t.Errorf("%s trace=%t: metric %s missing or not in %s: %+v", w.name, trace, s.name, s.unit, m)
				}
			}
		}
	}
}
