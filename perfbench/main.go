// Command perfbench is the repository benchmark: it drives the S-SLIC
// stack in-process through its public entry points — server.New(...)
// .Handler() behind a loopback listener, and pipeline.New(...).Run — on
// synthetic scenes with exact ground truth, and reports end-to-end and
// per-layer metrics for one named workload.
//
//	perfbench --workload stills --seed 1 --seconds 30 --trace 0
//	perfbench -compare old.txt new.txt
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics; --trace 1 measures an untraced and a traced window
// of half the length each and reports the per-layer metrics. A workload
// run pins itself to one CPU first and reports end-to-end times at a
// reference speed (speed.go). See README.md for the workloads and what
// each metric should move.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 30, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	cmp := fs.Bool("compare", false, "compare two saved outputs: -compare OLD NEW")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: -compare needs two saved outputs")
			return 2
		}
		if err := compare(fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload (%s), --seconds > 0 and --trace 0 or 1\n", strings.Join(names, ", "))
		return 2
	}
	if err := pinToOneCPU(); err != nil {
		fmt.Fprintln(stderr, "perfbench: pinning to one CPU:", err)
		return 1
	}
	o := opts{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second))}
	rep, err := measure(w, o, *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// measure runs one workload. A traced run splits the window in two: an
// untraced half and a traced half on a fresh system, whose p50 latency
// difference is the tracing overhead.
func measure(w workload, o opts, trace bool) (*report, error) {
	if !trace {
		out, err := w.run(o, false)
		if err != nil {
			return nil, err
		}
		return endToEnd(w.name, o, out), nil
	}
	half := o
	half.seconds = o.seconds / 2
	half.setupOnce = true // setup_s is an end-to-end metric
	plain, err := w.run(half, false)
	if err != nil {
		return nil, err
	}
	traced, err := w.run(half, true)
	if err != nil {
		return nil, err
	}
	return perLayer(w.name, o, plain, traced), nil
}
