// Command camperf is camsim's benchmark: a closed-loop runner that runs
// one seeded workload (io-rand, sort or kv-serve) through every backend
// it compares, checks each pass's output, and reports end-to-end metrics
// or, from a traced run, per-layer metrics. See README.md.
//
//	camperf --workload io-rand --seed 1 --seconds 20 --trace 0
//	camperf compare A.json B.json
//
// Run it from the repository root; run.sh builds it and sets the Go
// environment so that everything it writes stays under .bench_build.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if len(os.Args) != 4 {
			fmt.Fprintln(os.Stderr, "usage: camperf compare A.json B.json")
			os.Exit(2)
		}
		if err := compareResults(os.Stdout, os.Args[2], os.Args[3]); err != nil {
			fmt.Fprintln(os.Stderr, "camperf:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(cli(os.Args[1:]))
}

func cli(args []string) int {
	fs := flag.NewFlagSet("camperf", flag.ContinueOnError)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var (
		wname   = fs.String("workload", "", "workload: "+strings.Join(names, ", "))
		seed    = fs.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds = fs.Float64("seconds", 10, "time budget: rounds start while one more fits")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		tiny    = fs.Bool("tiny", false, "scaled-down inputs (self-tests)")
		work    = fs.String("work", ".bench_build/camperf", "directory for profiles and saved results")
		child   = fs.Bool("child", false, "run a single pass in this process (a run starts one such child per pass)")
		backend = fs.String("backend", "", "backend of the pass (with -child)")
		cpuprof = fs.String("cpuprofile", "", "write the pass's CPU profile here (with -child)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*wname)
	if !ok {
		fmt.Fprintf(os.Stderr, "camperf: unknown workload %q (want %s)\n", *wname, strings.Join(names, ", "))
		return 2
	}
	if *child {
		spec := passSpec{Workload: w.name, Backend: *backend, Seed: *seed, Tiny: *tiny}
		if err := childMain(spec, *cpuprof); err != nil {
			fmt.Fprintln(os.Stderr, "camperf:", err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "camperf: -trace must be 0 or 1")
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "camperf:", err)
		return 1
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "camperf:", err)
		return 1
	}
	cfg := runConfig{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, tiny: *tiny, exe: exe, work: *work}
	// An interrupt cancels the run: the pass in flight is killed and waited
	// for, and no result is printed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rec, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "camperf:", err)
		return 1
	}
	rec.Stamp = takeStamp(root)
	if path, err := save(*work, rec); err != nil {
		fmt.Fprintln(os.Stderr, "camperf: saving result:", err)
	} else {
		fmt.Printf("saved: %s\n", path)
	}
	if err := report(os.Stdout, rec); err != nil {
		fmt.Fprintln(os.Stderr, "camperf:", err)
		return 1
	}
	return 0
}
