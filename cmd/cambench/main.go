// Command cambench runs the paper-reproduction experiments: one per table
// and figure of the CAM paper's evaluation section.
//
// Usage:
//
//	cambench -list
//	cambench -exp fig8            # one experiment at paper scale
//	cambench -exp all -quick      # everything, scaled down
//	cambench -exp all -parallel 8 # eight experiments in flight at once
//	cambench -exp fig9 -csv       # emit tables as CSV
//	cambench -exp abl-faults -faults 7:1e-4  # inject media errors at 1e-4
//	cambench -exp fig8 -cpuprofile fig8.pprof
//
// Independent experiments run concurrently in a worker pool (-parallel,
// default GOMAXPROCS); rendered results appear on stdout in registry order
// and are byte-identical for any worker count. Host wall-clock timings and
// completion progress go to stderr, keeping stdout deterministic.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"camsim/internal/fault"
	"camsim/internal/harness"
	"camsim/internal/mem"
)

func main() {
	var (
		exp         = flag.String("exp", "", "experiment id (fig1..fig16, tab1..tab6) or 'all'")
		list        = flag.Bool("list", false, "list available experiments")
		quick       = flag.Bool("quick", false, "run scaled-down workloads")
		csv         = flag.Bool("csv", false, "emit tables as CSV instead of aligned text")
		parallel    = flag.Int("parallel", runtime.GOMAXPROCS(0), "experiments to run concurrently (1 = serial)")
		shards      = flag.Int("shards", 1, "shard workers per clustered simulation (1 = serial; output is identical for any value)")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile of the experiment runs to `file`")
		memprofile  = flag.String("memprofile", "", "write an allocation profile taken after the runs to `file`")
		faults      = flag.String("faults", "", "fault injection `spec`: seed:rate shorthand or key=val,... (seed, rate, drop, slow, slowx, progfail, faildev, failat); empty or 'off' disables")
		materialize = flag.Bool("materialize", false, "force the eager data plane: buffers carry real bytes instead of lazy payload references (output is identical either way)")
	)
	flag.Parse()

	plan, err := fault.ParseSpec(*faults)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cambench: -faults: %v\n", err)
		os.Exit(1)
	}
	// Installed before any experiment is constructed: platform.New wires
	// injectors and the driver DefaultConfigs arm their recovery timers off
	// this plan.
	fault.SetDefault(plan)
	// Likewise before any buffer exists, so every payload is born in the
	// selected mode.
	mem.SetDefaultEager(*materialize)

	if *list || *exp == "" {
		fmt.Println("available experiments:")
		for _, e := range harness.All() {
			fmt.Printf("  %-8s %s\n", e.ID, e.Title)
		}
		if *exp == "" && !*list {
			fmt.Println("\nselect one with -exp <id> or run everything with -exp all")
		}
		return
	}

	cfg := harness.RunConfig{Quick: *quick, Shards: *shards}
	if *shards > 1 {
		// Shard/coordinator diagnostics stay on stderr: stdout is the
		// deterministic experiment output and must not vary with -shards.
		fmt.Fprintf(os.Stderr, "cambench: clustered simulations run up to %d shard workers per lookahead window\n", *shards)
	}
	var toRun []harness.Experiment
	if *exp == "all" {
		toRun = harness.All()
	} else {
		e, ok := harness.Get(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "cambench: unknown experiment %q; use -list\n", *exp)
			os.Exit(1)
		}
		toRun = []harness.Experiment{e}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cambench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cambench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	progress := func(p harness.Progress) {
		fmt.Fprintf(os.Stderr, "cambench: %s done in %.1fs wall (%d/%d)\n",
			p.Result.ID, p.Wall.Seconds(), p.Completed, len(toRun))
	}
	results := harness.RunAll(toRun, cfg, *parallel, progress)

	for _, r := range results {
		if *csv {
			fmt.Printf("# %s — %s\n", r.ID, r.Title)
			for _, t := range r.Tables {
				fmt.Print(t.CSV())
			}
			for _, f := range r.Figs {
				fmt.Println(f.String())
			}
		} else {
			fmt.Print(r.String())
		}
		fmt.Print(r.Footer())
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cambench: -memprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cambench: -memprofile: %v\n", err)
			os.Exit(1)
		}
	}
}
