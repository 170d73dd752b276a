package main

import (
	"math"
	"regexp"
	"sort"
)

// metricDef is one reported metric. Bound is the share of the parent
// commit's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the simulator sees, reported on every
// workload. Host time is CPU time of the pass process (see cpuSeconds),
// scaled to the reference machine speed (see machineSpeed). Rates count
// the simulated work of every pass, including the part a pass completed
// before it panicked; per-pass costs count passes that completed.
var endToEnd = []metricDef{
	{"host_s", "s", "lower", 0.2},           // host seconds per pass, setup through output check
	{"io_per_host_s", "1/s", "higher", 0.2}, // NVMe commands completed per host second
	{"alloc_MB", "MB", "lower", 0.1},        // heap bytes allocated per pass
	{"peak_rss_MB", "MB", "lower", 0.2},     // resident set of the heaviest backend's pass process
	{"setup_s", "s", "lower", 0.25},         // host seconds of platform, driver and tier construction per pass
}

// perLayer is reported by the traced run. A metric that does not apply
// to a workload reads 0 there (sim.paper_err_pct reads -1 where the paper
// gives no reference).
var perLayer = []metricDef{
	// Host-time shares of the CPU profile, folded by package into layers.
	{"host.engine_frac", "ratio", "lower", 0},
	{"host.devices_frac", "ratio", "lower", 0},
	{"host.drivers_frac", "ratio", "lower", 0},
	{"host.dataplane_frac", "ratio", "lower", 0},
	{"host.app_frac", "ratio", "lower", 0},
	{"host.tier_frac", "ratio", "lower", 0},
	{"host.runtime_frac", "ratio", "lower", 0},
	{"host.other_frac", "ratio", "lower", 0},
	{"rt.gc_cpu_frac", "ratio", "lower", 0},
	{"rt.gc_cycles", "count", "lower", 0},
	// Unscaled host time, and the speed factor that scales it.
	{"host_raw_s", "s", "lower", 0},
	{"machine_speed", "x", "higher", 0},
	// Spans the benchmark records around its calls into each layer.
	{"span.platform_new_ms", "ms", "lower", 0},
	{"span.driver_new_ms", "ms", "lower", 0},
	{"span.kv_new_ms", "ms", "lower", 0},
	{"span.engine_run_s", "s", "lower", 0},
	{"trace.overhead_s", "s", "lower", 0},
	// Simulator speed. Not an end-to-end gate: it moves with the mix of
	// backends' simulated durations, which a pass that panics changes.
	{"sim_per_host_s", "s/s", "higher", 0},
	// Wall-clock twins of host_s and sim_per_host_s, a result that only
	// kv-serve has, and the failure share, which is 0 on a clean run.
	{"wall_s", "s", "lower", 0},
	{"sim_per_wall", "s/s", "higher", 0},
	{"host_tok_per_s", "tok/s", "higher", 0},
	{"failed_frac", "ratio", "lower", 0},
	// Exact counts and simulated results; they repeat exactly per seed.
	{"sim.elapsed_ms", "ms", "lower", 0},
	{"ssd.read_cmds", "count", "lower", 0},
	{"ssd.write_cmds", "count", "lower", 0},
	{"ssd.err_cmds", "count", "lower", 0},
	{"ssd.read_lat_us", "us", "lower", 0},
	{"ftl.waf", "ratio", "lower", 0},
	{"cam.batches", "count", "lower", 0},
	{"cam.cmds_per_req", "ratio", "lower", 0},
	{"cam.batch_lat_p50_us", "us", "lower", 0},
	{"cam.batch_lat_p98_us", "us", "lower", 0},
	{"cam.cycles_per_req", "cycles", "lower", 0},
	{"bam.timeouts", "count", "lower", 0},
	{"bam.failed_blocks", "count", "lower", 0},
	{"gpu.sm_util", "ratio", "lower", 0},
	{"sortx.passes", "count", "lower", 0},
	{"sortx.bytes_moved", "bytes", "lower", 0},
	{"sortx.run_ms", "ms", "lower", 0},
	{"sortx.merge_ms", "ms", "lower", 0},
	{"kv.hit_rate", "ratio", "higher", 0},
	{"kv.prefetch_rate", "ratio", "higher", 0},
	{"kv.wasted_fill_frac", "ratio", "lower", 0},
	{"kv.spills", "count", "lower", 0},
	{"kv.clean_drops", "count", "lower", 0},
	{"sim.cam_GBps", "GB/s", "higher", 0},
	{"sim.cam_sort_ms", "ms", "lower", 0},
	{"sim.cam_tok_s", "tok/s", "higher", 0},
	{"sim.cam_step_p98_us", "us", "lower", 0},
	{"sim.paper_err_pct", "%", "lower", 0},
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Paper references (EXPERIMENTS.md): CAM reaches about 20 GB/s of 4 KiB
// random reads at 12 SSDs, and sorts about 1.5x faster than POSIX.
// kv-serve has no paper reference: its model is unvalidated.
const (
	paperCAMGBps     = 20.0
	paperSortSpeedup = 1.5
	noPaperReference = -1.0
)

// roundMetrics computes every metric one round of passes yields; speed
// is the run's machine speed, which scales host time. The machine speed
// itself, host shares, tracing overhead, peak memory and the failure
// share are set by the caller.
func roundMetrics(workload string, passes []passResult, speed float64) map[string]float64 {
	m := map[string]float64{}
	var done []passResult
	var simS, runS, runWall, ios, toks float64
	for _, p := range passes {
		simS += p.SimS
		runS += p.RunS
		runWall += p.RunWallS
		ios += float64(p.IOCmds)
		toks += float64(p.Tokens)
		if p.Panic == "" {
			done = append(done, p)
		}
	}
	if runS > 0 {
		m["sim_per_host_s"] = simS / (runS * speed)
		m["io_per_host_s"] = ios / (runS * speed)
		m["host_tok_per_s"] = toks / (runS * speed)
	}
	if runWall > 0 {
		m["sim_per_wall"] = simS / runWall
	}
	mean := func(f func(p passResult) float64) float64 {
		if len(done) == 0 {
			return 0
		}
		var s float64
		for _, p := range done {
			s += f(p)
		}
		return s / float64(len(done))
	}
	sum := func(key string) float64 {
		var s float64
		for _, p := range done {
			s += p.Exact[key]
		}
		return s
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m["host_raw_s"] = mean(func(p passResult) float64 { return p.SetupS + p.RunS })
	m["host_s"] = m["host_raw_s"] * speed
	m["wall_s"] = mean(func(p passResult) float64 { return p.SetupWallS + p.RunWallS })
	m["alloc_MB"] = mean(func(p passResult) float64 { return float64(p.AllocBytes) / 1e6 })
	m["setup_s"] = mean(func(p passResult) float64 { return p.SetupS }) * speed
	m["rt.gc_cpu_frac"] = mean(func(p passResult) float64 { return p.GCCPUFrac })
	m["rt.gc_cycles"] = mean(func(p passResult) float64 { return float64(p.GCCycles) })
	m["span.platform_new_ms"] = mean(func(p passResult) float64 { return p.PlatformNewS * 1e3 }) * speed
	m["span.driver_new_ms"] = mean(func(p passResult) float64 { return p.DriverNewS * 1e3 }) * speed
	m["span.kv_new_ms"] = mean(func(p passResult) float64 { return p.KVNewS * 1e3 }) * speed
	m["span.engine_run_s"] = mean(func(p passResult) float64 { return p.RunS }) * speed

	m["sim.elapsed_ms"] = sum("sim_ns") / 1e6
	m["ssd.read_cmds"] = sum("ssd.read_cmds")
	m["ssd.write_cmds"] = sum("ssd.write_cmds")
	m["ssd.err_cmds"] = sum("ssd.err_cmds")
	m["ssd.read_lat_us"] = ratio(sum("ssd.read_lat_ns_sum"), sum("ssd.read_cmds")) / 1e3
	m["ftl.waf"] = ratio(sum("ftl.nand_pages"), sum("ftl.host_pages"))
	hits, pre, miss, fills := sum("kv.hits"), sum("kv.prefetched"), sum("kv.misses"), sum("kv.fills")
	m["kv.hit_rate"] = ratio(hits, hits+pre+miss)
	m["kv.prefetch_rate"] = ratio(pre, pre+miss)
	m["kv.wasted_fill_frac"] = ratio(fills-pre-miss, fills)
	m["kv.spills"] = sum("kv.spills")
	m["kv.clean_drops"] = sum("kv.clean_drops")

	byBackend := map[string]map[string]float64{}
	for _, p := range done {
		byBackend[p.Backend] = p.Exact
	}
	if x, ok := byBackend["CAM"]; ok {
		m["cam.batches"] = x["cam.batches"]
		m["cam.cmds_per_req"] = ratio(x["cam.commands"], x["cam.requests"])
		m["cam.cycles_per_req"] = ratio(x["cam.cycles"], x["cam.requests"])
		m["cam.batch_lat_p50_us"] = x["cam.batch_lat_p50_us"]
		m["cam.batch_lat_p98_us"] = x["cam.batch_lat_p98_us"]
		m["sortx.passes"] = x["sort.passes"]
		m["sortx.bytes_moved"] = x["sort.bytes_moved"]
		m["sortx.run_ms"] = x["sort.run_ns"] / 1e6
		m["sortx.merge_ms"] = x["sort.merge_ns"] / 1e6
		m["sim.cam_GBps"] = x["io.read_GBps"]
		m["sim.cam_sort_ms"] = x["sort.elapsed_ns"] / 1e6
		m["sim.cam_tok_s"] = x["kv.tok_s"]
		m["sim.cam_step_p98_us"] = x["kv.step_p98_us"]
	}
	if x, ok := byBackend["BaM"]; ok {
		m["bam.timeouts"] = x["bam.timeouts"]
		m["bam.failed_blocks"] = x["bam.failed_blocks"]
		m["gpu.sm_util"] = x["gpu.sm_util"]
	}
	m["sim.paper_err_pct"] = noPaperReference
	switch workload {
	case "io-rand":
		if g := m["sim.cam_GBps"]; g > 0 {
			m["sim.paper_err_pct"] = 100 * math.Abs(g-paperCAMGBps) / paperCAMGBps
		}
	case "sort":
		cam, posix := byBackend["CAM"], byBackend["POSIX"]
		if cam != nil && posix != nil && cam["sort.elapsed_ns"] > 0 {
			speedup := posix["sort.elapsed_ns"] / cam["sort.elapsed_ns"]
			m["sim.paper_err_pct"] = 100 * math.Abs(speedup-paperSortSpeedup) / paperSortSpeedup
		}
	}
	return m
}

// summary is one metric over a run's rounds.
type summary struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarize(unit string, v []float64) summary {
	q1, med, q3 := quartiles(v)
	return summary{Unit: unit, Median: med, Q1: q1, Q3: q3, N: len(v)}
}

// quartiles returns the first quartile, median and third quartile by
// the exclusive method (Python's statistics.quantiles default), so the
// spreads printed here match what that function gives for the same values.
func quartiles(v []float64) (q1, med, q3 float64) {
	n := len(v)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n%2 == 1 {
		med = s[n/2]
	} else {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	if n == 1 {
		return s[0], med, s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), med, q(3)
}
