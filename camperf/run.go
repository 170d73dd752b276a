package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"time"
)

// runConfig is one benchmark run: a workload at one seed, closed loop.
type runConfig struct {
	w       workload
	seed    uint64
	seconds float64
	trace   bool
	tiny    bool
	exe     string // this binary, re-executed once per pass
	work    string // directory for profiles and saved results
}

// runRecord is a run's saved result.
type runRecord struct {
	Stamp     stamp              `json:"stamp"`
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     bool               `json:"trace"`
	Rounds    int                `json:"rounds"`
	Passes    int                `json:"passes"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Correct   bool               `json:"correct"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]summary `json:"metrics"`
}

// runLimit is the hard ceiling on one run: passes still going then are
// killed and counted failed, so a hang cannot stall the caller.
const runLimit = 170 * time.Second

// run executes rounds until the time budget is spent. A round runs every
// backend of the workload once, each pass in its own child process, so a
// pass that panics is counted failed without ending the run. In a traced
// run every other round records CPU profiles.
//
// Every round repeats the same operations, so the run attempts the
// operations of one round: per backend, attempted is that pass's operation
// count and failed the most operations it failed in any round. Both then
// depend on the seed alone, not on how many rounds the time budget fits.
func run(ctx context.Context, cfg runConfig) (runRecord, error) {
	rec := runRecord{Workload: cfg.w.name, Seed: cfg.seed, Trace: cfg.trace, Correct: true}
	profDir := filepath.Join(cfg.work, "prof", fmt.Sprintf("%s-seed%d", cfg.w.name, cfg.seed))
	if cfg.trace {
		if err := os.RemoveAll(profDir); err != nil {
			return rec, err
		}
		if err := os.MkdirAll(profDir, 0o755); err != nil {
			return rec, err
		}
	}
	start := time.Now()
	ctx, cancel := context.WithTimeout(ctx, runLimit)
	defer cancel()
	budget := time.Duration(cfg.seconds * float64(time.Second))
	minRounds := 2 // determinism needs a repetition
	if cfg.trace {
		minRounds = 4 // two untraced and two traced
	}

	type round struct {
		passes []passResult
		traced bool
		speed  float64 // median of the machine speed sampled before each pass
	}
	var rounds []round
	var profiles []string
	first := map[string]passResult{}
	failures := map[string]int{}
	rss := map[string][]float64{} // MB per completed pass, by backend
	ops := map[string]uint64{}    // operations of one pass, by backend
	worst := map[string]uint64{}  // most failed operations of any pass, by backend
	var allSpeeds []float64
	var lastRound time.Duration
	for r := 0; r < minRounds || time.Since(start)+lastRound <= budget; r++ {
		if ctx.Err() != nil {
			break
		}
		t0 := time.Now()
		isTraced := cfg.trace && r%2 == 1
		var passes []passResult
		var speeds []float64
		for _, b := range cfg.w.backends {
			speeds = append(speeds, machineSpeed())
			allSpeeds = append(allSpeeds, speeds[len(speeds)-1])
			prof := ""
			if isTraced {
				prof = filepath.Join(profDir, fmt.Sprintf("r%d-%s.pprof", r, b))
			}
			p := runChild(ctx, cfg, b, prof)
			if msg := checkRepeat(first, &p); msg != "" {
				p.Mismatch = msg
			}
			if p.Panic != "" {
				failures[b+": "+p.Panic]++
			} else {
				rss[b] = append(rss[b], float64(p.RSSKB)*1024/1e6)
				if prof != "" {
					profiles = append(profiles, prof)
				}
			}
			if p.Mismatch != "" {
				failures[b+": "+p.Mismatch]++
				rec.Correct = false
			}
			ops[b] = max(ops[b], p.Ops)
			worst[b] = max(worst[b], p.FailedOps)
			passes = append(passes, p)
		}
		rec.Rounds++
		rec.Passes += len(passes)
		_, speed, _ := quartiles(speeds)
		rounds = append(rounds, round{passes, isTraced, speed})
		lastRound = time.Since(t0)
	}
	if errors.Is(ctx.Err(), context.Canceled) {
		return rec, ctx.Err() // interrupted: there is no result to report
	}
	for b, n := range ops {
		rec.Attempted += n
		rec.Failed += worst[b]
	}
	for msg, n := range failures {
		rec.Failures = append(rec.Failures, fmt.Sprintf("%s (x%d)", msg, n))
	}
	sort.Strings(rec.Failures)

	// One speed factor for the whole run: the median over every pass's
	// sample is steadier than any single timing of the reference loop.
	_, speed, _ := quartiles(allSpeeds)
	var plain, traced []map[string]float64
	for _, rd := range rounds {
		m := roundMetrics(cfg.w.name, rd.passes, speed)
		m["machine_speed"] = rd.speed
		if rd.traced {
			traced = append(traced, m)
		} else {
			plain = append(plain, m)
		}
	}

	rec.Metrics = map[string]summary{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !cfg.trace && (strings.HasPrefix(d.Name, "host.") || d.Name == "trace.overhead_s") {
			continue // only a traced run measures these
		}
		var v []float64
		for _, m := range plain {
			v = append(v, m[d.Name])
		}
		rec.Metrics[d.Name] = summarize(d.Unit, v)
	}
	rec.Metrics["peak_rss_MB"] = peakRSS(rss)
	rec.Metrics["failed_frac"] = summarize("ratio", []float64{float64(rec.Failed) / float64(rec.Attempted)})
	if cfg.trace {
		shares, err := foldProfiles(profiles)
		if err != nil {
			return rec, fmt.Errorf("folding CPU profiles: %w", err)
		}
		for _, l := range layers {
			rec.Metrics["host."+l+"_frac"] = summarize("ratio", []float64{shares[l]})
		}
		var th []float64
		for _, m := range traced {
			th = append(th, m["host_s"])
		}
		_, tracedHost, _ := quartiles(th)
		rec.Metrics["trace.overhead_s"] = summarize("s", []float64{tracedHost - rec.Metrics["host_s"].Median})
	}
	return rec, nil
}

// peakRSS is the largest per-backend median of the pass processes' peak
// resident set: the memory the heaviest backend typically needs. A median
// per backend, rather than the maximum of each round, keeps the garbage
// collector's run-to-run timing out of the figure.
func peakRSS(byBackend map[string][]float64) summary {
	var best summary
	for _, v := range byBackend {
		if s := summarize("MB", v); s.Median > best.Median {
			best = s
		}
	}
	return best
}

// checkRepeat compares a pass with the first pass of the same backend in
// this run. Both ran the same inputs, so their simulated results must be
// identical; a difference fails every operation of the later pass.
func checkRepeat(first map[string]passResult, p *passResult) string {
	ref, seen := first[p.Backend]
	if !seen {
		first[p.Backend] = *p
		return ""
	}
	var msg string
	switch {
	case (ref.Panic == "") != (p.Panic == ""):
		msg = "outcome differs between repetitions of the same seed (panicked in one, completed in another)"
	case p.Panic == "" && !reflect.DeepEqual(ref.Exact, p.Exact):
		msg = "simulated results differ between repetitions of the same seed: " + exactDiff(ref.Exact, p.Exact)
	default:
		return ""
	}
	p.FailedOps = p.Ops
	return msg
}

func exactDiff(a, b map[string]float64) string {
	var keys []string
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		x, okA := a[k]
		y, okB := b[k]
		if okA != okB || math.Float64bits(x) != math.Float64bits(y) {
			return fmt.Sprintf("%s %v vs %v", k, x, y)
		}
	}
	return "maps differ"
}

// runChild runs one pass in a child process. A child that dies reports
// nothing itself: its pass counts every planned operation failed, and the
// last checkpoint stands for the work it simulated before dying.
func runChild(ctx context.Context, cfg runConfig, backend, profile string) passResult {
	args := []string{"-child", "-workload", cfg.w.name, "-backend", backend, "-seed", fmt.Sprint(cfg.seed)}
	if cfg.tiny {
		args = append(args, "-tiny")
	}
	if profile != "" {
		args = append(args, "-cpuprofile", profile)
	}
	cmd := exec.CommandContext(ctx, cfg.exe, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()

	var pl plan
	var last progress
	var r passResult
	got := false
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		kind, body, _ := strings.Cut(sc.Text(), " ")
		var dst any
		switch kind {
		case "plan":
			dst = &pl
		case "progress":
			dst = &last
		case "result":
			dst, got = &r, true
		default:
			continue
		}
		if json.Unmarshal([]byte(body), dst) != nil && kind == "result" {
			got = false
		}
	}
	if err == nil && got {
		r.Backend = backend
		return r
	}
	ops := max(pl.Ops, 1)
	return passResult{
		Backend: backend, Ops: ops, FailedOps: ops,
		RunS: last.RunS, RunWallS: last.RunWallS, SimS: last.SimS, IOCmds: last.IOCmds, Tokens: last.Tokens,
		Panic: deathCause(ctx, err, stderr.String()),
	}
}

// deathCause names why a child ended without a result: the panic message
// and the frame that raised it, when the child panicked.
func deathCause(ctx context.Context, err error, stderr string) string {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return fmt.Sprintf("killed at the %v run limit", runLimit)
	}
	lines := strings.Split(stderr, "\n")
	msg, site := "", ""
	for i, l := range lines {
		if msg == "" && strings.HasPrefix(l, "panic: ") {
			msg = strings.TrimSuffix(strings.TrimPrefix(l, "panic: "), " [recovered]")
		}
		// The frame after the last panic(...) call raised the panic.
		if strings.HasPrefix(l, "panic(") && i+3 < len(lines) {
			fn := lines[i+2]
			if j := strings.LastIndex(fn, "("); j > 0 {
				fn = fn[:j] // drop the argument words, which vary run to run
			}
			site = fmt.Sprintf("%s (%s)", fn, shortFrame(lines[i+3]))
		}
	}
	if msg == "" {
		return fmt.Sprintf("child exited without a result: %v", err)
	}
	if site == "" {
		return "panic: " + msg
	}
	return fmt.Sprintf("panic: %s at %s", msg, site)
}

// shortFrame trims a stack frame's file line to its repository-relative
// path and line, dropping the PC offset.
func shortFrame(l string) string {
	l = strings.TrimSpace(l)
	if i := strings.LastIndex(l, " +0x"); i >= 0 {
		l = l[:i]
	}
	if i := strings.LastIndex(l, "/internal/"); i >= 0 {
		return l[i+1:]
	}
	return filepath.Base(l)
}

// report prints every metric with its unit and spread, then the result
// line: end-to-end metrics untraced, per-layer metrics traced.
func report(w io.Writer, rec runRecord) error {
	fmt.Fprintf(w, "camperf: workload=%s seed=%d trace=%v rounds=%d passes=%d attempted=%d failed=%d correct=%v\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Rounds, rec.Passes, rec.Attempted, rec.Failed, rec.Correct)
	fmt.Fprintf(w, "stamp: %s\n", rec.Stamp)
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "failure: %s\n", f)
	}
	fmt.Fprintf(w, "%-24s %14s %14s %14s %4s  %s\n", "metric", "median", "q1", "q3", "n", "unit")
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		s, ok := rec.Metrics[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-24s %14.6g %14.6g %14.6g %4d  %s\n", d.Name, s.Median, s.Q1, s.Q3, s.N, d.Unit)
	}
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, map[string]value{}}
	for _, d := range defs {
		out.Metrics[d.Name] = value{rec.Metrics[d.Name].Median, d.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// save writes the run's record under the work directory for later
// comparison, and returns its path.
func save(work string, rec runRecord) (string, error) {
	dir := filepath.Join(work, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	trace := 0
	if rec.Trace {
		trace = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", rec.Workload, rec.Seed, trace))
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
