// Command sslic-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	sslic-bench                   # run everything at paper scale
//	sslic-bench -exp table3       # one experiment
//	sslic-bench -quick            # trimmed sweeps for a fast smoke run
//	sslic-bench -csv -out results # also write CSV files per experiment
//
// With -telemetry-addr the process serves /metrics, /healthz,
// /debug/vars and /debug/pprof/ while experiments run, so long paper
// sweeps can be watched and CPU-profiled in flight.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"sslic/internal/bench"
	"sslic/internal/telemetry"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment ID (empty = all); use -list to enumerate")
		list    = flag.Bool("list", false, "list experiments and exit")
		corpus  = flag.Int("corpus", 20, "corpus size for quality experiments")
		seed    = flag.Int64("seed", 1, "corpus seed")
		quick   = flag.Bool("quick", false, "trimmed sweeps")
		csv     = flag.Bool("csv", false, "write CSV files per experiment")
		md      = flag.Bool("md", false, "write Markdown files per experiment")
		out     = flag.String("out", ".", "directory for CSV/Markdown output")
		telAddr = flag.String("telemetry-addr", "", "serve /metrics, /healthz, /debug/vars and /debug/pprof on this address while experiments run; empty disables")
	)
	flag.Parse()

	if *list {
		for _, r := range bench.Experiments() {
			fmt.Printf("%-20s %s\n", r.ID, r.Description)
		}
		return
	}

	reg := telemetry.NewRegistry()
	expRuns := reg.Counter("sslic_bench_experiments_total",
		"Experiments completed by this sslic-bench process.")
	expSeconds := reg.Histogram("sslic_bench_experiment_seconds",
		"Wall time per experiment.",
		[]float64{0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300})
	if *telAddr != "" {
		server, err := telemetry.NewServer(telemetry.ServerConfig{Addr: *telAddr, Registry: reg})
		if err != nil {
			fmt.Fprintln(os.Stderr, "sslic-bench:", err)
			os.Exit(1)
		}
		go server.Serve()
		defer server.Close()
		fmt.Printf("telemetry: http://%s/metrics (also /healthz, /debug/vars, /debug/pprof)\n\n", server.Addr())
	}

	opts := bench.Options{CorpusSize: *corpus, Seed: *seed, Quick: *quick}

	var runners []bench.Runner
	if *exp == "" {
		runners = bench.Experiments()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			r, ok := bench.Lookup(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "sslic-bench: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			runners = append(runners, r)
		}
	}

	for _, r := range runners {
		t0 := time.Now()
		tbl, err := r.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sslic-bench: %s: %v\n", r.ID, err)
			os.Exit(1)
		}
		expRuns.Inc()
		expSeconds.Observe(time.Since(t0).Seconds())
		fmt.Print(tbl.Render())
		fmt.Printf("(%s in %v)\n\n", r.ID, time.Since(t0).Round(time.Millisecond))
		if *csv || *md {
			if err := os.MkdirAll(*out, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, "sslic-bench:", err)
				os.Exit(1)
			}
		}
		if *csv {
			path := filepath.Join(*out, r.ID+".csv")
			if err := os.WriteFile(path, []byte(tbl.CSV()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "sslic-bench:", err)
				os.Exit(1)
			}
		}
		if *md {
			path := filepath.Join(*out, r.ID+".md")
			if err := os.WriteFile(path, []byte(tbl.Markdown()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "sslic-bench:", err)
				os.Exit(1)
			}
		}
	}
}
