package main

import (
	"context"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
)

// childEnv makes the test binary act as the benchmark binary when the
// runner under test re-executes it for a pass.
const childEnv = "CAMPERF_TEST_AS_BENCHMARK"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(cli(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// TestTinyPasses runs every workload on every backend at tiny scale in
// this process: each pass checks its output, and a repeat reproduces its
// simulated results exactly.
func TestTinyPasses(t *testing.T) {
	for _, w := range workloads {
		for _, b := range w.backends {
			t.Run(w.name+"/"+b, func(t *testing.T) {
				spec := passSpec{Workload: w.name, Backend: b, Seed: 3, Tiny: true}
				r := runPass(spec, emitter{io.Discard})
				if r.Mismatch != "" || r.FailedOps != 0 {
					t.Fatalf("output check failed: %q, %d of %d operations failed", r.Mismatch, r.FailedOps, r.Ops)
				}
				if r.Ops == 0 || r.IOCmds == 0 || r.Exact["sim_ns"] <= 0 {
					t.Fatalf("pass did no work: ops=%d io=%d sim_ns=%v", r.Ops, r.IOCmds, r.Exact["sim_ns"])
				}
				again := runPass(spec, emitter{io.Discard})
				if !reflect.DeepEqual(r.Exact, again.Exact) {
					t.Fatalf("repeat differs: %s", exactDiff(r.Exact, again.Exact))
				}
			})
		}
	}
}

// TestSlicedRunMatchesRun checks that running the engine in slices, as a
// pass does to checkpoint, gives the results of one uninterrupted Run.
func TestSlicedRunMatchesRun(t *testing.T) {
	spec := passSpec{Workload: "kv-serve", Backend: "CAM", Seed: 5, Tiny: true}
	sliced := runPass(spec, emitter{io.Discard})

	w, _ := findWorkload(spec.Workload)
	j := w.build(spec, &setupSpans{})
	j.env.E.Go(spec.Workload, j.main)
	j.env.Run()
	whole := passResult{Ops: j.ops, Exact: map[string]float64{}}
	j.finish(&whole)
	recordCounters(&whole, j)
	j.env.E.Shutdown()
	if !reflect.DeepEqual(sliced.Exact, whole.Exact) {
		t.Fatalf("sliced run differs from Run: %s", exactDiff(whole.Exact, sliced.Exact))
	}
}

func childConfig(t *testing.T, workload string, seed uint64, tiny, trace bool) runConfig {
	t.Helper()
	t.Setenv(childEnv, "1")
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	w, _ := findWorkload(workload)
	return runConfig{w: w, seed: seed, tiny: tiny, trace: trace, exe: exe, work: t.TempDir()}
}

// TestKnownPanicCounted runs kv-serve at full scale at a seed where CAM's
// pass panics (camkv -backend cam -seed 2 reproduces it): the run must
// finish, count the CAM pass's operations failed, and name the panic site.
func TestKnownPanicCounted(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale kv-serve")
	}
	rec, err := run(context.Background(), childConfig(t, "kv-serve", 2, false, false))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Failed == 0 || rec.Failed >= rec.Attempted {
		t.Fatalf("failed %d of %d: want CAM's passes failed and the others not", rec.Failed, rec.Attempted)
	}
	if len(rec.Failures) != 1 || !strings.Contains(rec.Failures[0], "kvcache.(*Server).settle") {
		t.Fatalf("failures = %q, want the CAM panic in kvcache settle", rec.Failures)
	}
	if !rec.Correct {
		t.Fatal("a panic is a failed operation, not a wrong output")
	}
	if f := rec.Metrics["failed_frac"].Median; f <= 0 {
		t.Fatalf("failed_frac = %v, want > 0", f)
	}
}

// TestCountsIndependentOfRounds checks that attempted and failed depend on
// the seed only: a run that fits more rounds reports the same counts.
func TestCountsIndependentOfRounds(t *testing.T) {
	short := childConfig(t, "kv-serve", 4, true, false)
	long := short
	long.seconds = 2
	a, err := run(context.Background(), short)
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(context.Background(), long)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds >= b.Rounds {
		t.Fatalf("rounds %d and %d: want the longer run to fit more", a.Rounds, b.Rounds)
	}
	if a.Attempted != b.Attempted || a.Failed != b.Failed {
		t.Fatalf("%d rounds: %d of %d failed; %d rounds: %d of %d failed",
			a.Rounds, a.Failed, a.Attempted, b.Rounds, b.Failed, b.Attempted)
	}
}

// TestTracedRunFoldsLayers runs the traced mode end to end at tiny scale:
// profiles are recorded, folded, and the shares sum to one.
func TestTracedRunFoldsLayers(t *testing.T) {
	rec, err := run(context.Background(), childConfig(t, "io-rand", 1, true, true))
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, l := range layers {
		sum += rec.Metrics["host."+l+"_frac"].Median
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("layer shares sum to %v", sum)
	}
	if rec.Failed != 0 || !rec.Correct {
		t.Fatalf("failures: %v", rec.Failures)
	}
}

func TestDeathCause(t *testing.T) {
	stderr := `panic: runtime error: invalid memory address or nil pointer dereference [recovered]
	panic: runtime error: invalid memory address or nil pointer dereference
[signal SIGSEGV: segmentation violation code=0x1 addr=0x0 pc=0x4f0a29]

goroutine 27 [running]:
camsim/internal/sim.(*Proc).invoke.func1()
	/src/camsim/internal/sim/engine.go:377 +0x53
panic({0x55cbe0?, 0x6b2970?})
	/usr/local/go/src/runtime/panic.go:787 +0x132
camsim/internal/kvcache.(*Server).settle(0xc000156000, 0xc000093800?, 0xc0002f48d0)
	/src/camsim/internal/kvcache/serve.go:288 +0x29
`
	want := "panic: runtime error: invalid memory address or nil pointer dereference at " +
		"camsim/internal/kvcache.(*Server).settle (internal/kvcache/serve.go:288)"
	if got := deathCause(context.Background(), nil, stderr); got != want {
		t.Fatalf("deathCause = %q\nwant %q", got, want)
	}
}
