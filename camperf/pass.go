package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"camsim/internal/platform"
	"camsim/internal/sim"
)

// passResult is what one pass reports. Host-time fields vary run to run;
// Exact holds simulated results and counters, which must repeat exactly
// for the same pass spec.
type passResult struct {
	Backend string `json:"backend"`

	// Host time is the pass process's CPU time (user plus system, all
	// threads); the wall-clock twins carry a _wall suffix.
	SetupS       float64 `json:"setup_s"` // platform.New through the last buffer allocation
	PlatformNewS float64 `json:"platform_new_s"`
	DriverNewS   float64 `json:"driver_new_s"`
	KVNewS       float64 `json:"kv_new_s"`
	RunS         float64 `json:"run_s"` // inside the engine, to quiescence
	SetupWallS   float64 `json:"setup_wall_s"`
	RunWallS     float64 `json:"run_wall_s"`

	SimS   float64 `json:"sim_s"`
	IOCmds uint64  `json:"io_cmds"`
	Tokens uint64  `json:"tokens"`

	AllocBytes uint64  `json:"alloc_bytes"`
	GCCycles   uint64  `json:"gc_cycles"`
	GCCPUFrac  float64 `json:"gc_cpu_frac"`

	Ops       uint64 `json:"ops"`
	FailedOps uint64 `json:"failed_ops"`
	// Mismatch describes a failed output check; empty when every check held.
	Mismatch string             `json:"mismatch,omitempty"`
	Exact    map[string]float64 `json:"exact"`

	// RSSKB is the pass process's peak resident set (VmHWM).
	RSSKB int64 `json:"rss_kb"`
	// Panic is set by the parent when the pass process died.
	Panic string `json:"panic,omitempty"`
}

// progress is the checkpoint a pass emits while its engine runs, so a pass
// that dies mid-run still reports how much it simulated and in what host
// time.
type progress struct {
	RunS     float64 `json:"run_s"`
	RunWallS float64 `json:"run_wall_s"`
	SimS     float64 `json:"sim_s"`
	IOCmds   uint64  `json:"io_cmds"`
	Tokens   uint64  `json:"tokens"`
}

type plan struct {
	Ops uint64 `json:"ops"`
}

const (
	// runSlice is the simulated span the engine runs between checkpoint
	// opportunities. RunUntil resumes exactly where it stopped, so slicing
	// leaves every simulated result unchanged.
	runSlice = 50 * sim.Microsecond
	// checkpointEvery bounds how often a checkpoint is written.
	checkpointEvery = 10 * time.Millisecond
)

// emitter writes one "<kind> <json>" line per call, unbuffered, so lines
// written before a crash survive it.
type emitter struct{ w io.Writer }

func (e emitter) emit(kind string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of numbers and strings always marshal
	}
	fmt.Fprintf(e.w, "%s %s\n", kind, b)
}

func ioCmds(env *platform.Env) uint64 {
	var n uint64
	for _, d := range env.Devs {
		st := d.Stats()
		n += st.ReadCmds + st.WriteCmds
	}
	return n
}

// cpuSeconds is this process's CPU time so far, user plus system, across
// all its threads. The benchmark reports host time as CPU time: on a
// shared virtual machine, wall time also counts the time the hypervisor
// gives the CPU to other guests (steal), which varies run to run.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// runtimeSample reads the Go runtime counters a pass reports.
type runtimeSample struct {
	allocBytes, gcCycles uint64
	gcCPU, totalCPU      float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Float64(), s[3].Value.Float64()}
}

// runPass builds and runs one pass, checking its output, and returns its
// result. Checkpoints go to em while the engine runs.
func runPass(spec passSpec, em emitter) passResult {
	w, ok := findWorkload(spec.Workload)
	if !ok {
		panic("camperf: unknown workload " + spec.Workload)
	}
	r := passResult{Backend: spec.Backend, Exact: map[string]float64{}}
	rt0 := readRuntime()
	var sp setupSpans
	c0, t0 := cpuSeconds(), time.Now()
	j := w.build(spec, &sp)
	r.SetupS, r.SetupWallS = cpuSeconds()-c0, time.Since(t0).Seconds()
	r.PlatformNewS, r.DriverNewS, r.KVNewS = sp.platformNew, sp.driverNew, sp.kvNew
	r.Ops = j.ops
	em.emit("plan", plan{Ops: j.ops})

	env := j.env
	env.E.Go(spec.Workload, j.main)
	tokens := func() uint64 {
		if j.tokens == nil {
			return 0
		}
		return j.tokens()
	}
	c1 := cpuSeconds()
	t1 := time.Now()
	last := t1
	env.StartDevices()
	for deadline := runSlice; env.E.Pending() > 0; deadline += runSlice {
		env.E.RunUntil(deadline)
		if now := time.Now(); now.Sub(last) >= checkpointEvery {
			last = now
			em.emit("progress", progress{
				RunS: cpuSeconds() - c1, RunWallS: now.Sub(t1).Seconds(),
				SimS: env.E.Now().Seconds(), IOCmds: ioCmds(env), Tokens: tokens(),
			})
		}
	}
	r.RunS, r.RunWallS = cpuSeconds()-c1, time.Since(t1).Seconds()
	rt1 := readRuntime()

	r.SimS = env.E.Now().Seconds()
	r.IOCmds = ioCmds(env)
	r.Tokens = tokens()
	r.AllocBytes = rt1.allocBytes - rt0.allocBytes
	r.GCCycles = rt1.gcCycles - rt0.gcCycles
	if cpu := rt1.totalCPU - rt0.totalCPU; cpu > 0 {
		r.GCCPUFrac = (rt1.gcCPU - rt0.gcCPU) / cpu
	}
	j.finish(&r)
	recordCounters(&r, j)
	env.E.Shutdown()
	r.RSSKB = peakRSSKB()
	return r
}

// peakRSSKB reads this process's peak resident set from /proc. The
// rusage the parent gets from wait4 would not do: a child forked from a
// Go process starts on the parent's address space, and its ru_maxrss
// keeps the parent's peak from before the exec.
func peakRSSKB() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok { // "VmHWM:   12345 kB"
			if f := strings.Fields(v); len(f) > 0 {
				kb, _ := strconv.ParseInt(f[0], 10, 64)
				return kb
			}
		}
	}
	return 0
}

// recordCounters adds the device and driver counters every pass reports.
func recordCounters(r *passResult, j *job) {
	x := r.Exact
	x["sim_ns"] = float64(j.env.E.Now())
	var readLat sim.Time
	for _, d := range j.env.Devs {
		st := d.Stats()
		x["ssd.read_cmds"] += float64(st.ReadCmds)
		x["ssd.write_cmds"] += float64(st.WriteCmds)
		x["ssd.err_cmds"] += float64(st.ErrCmds)
		readLat += st.ReadLatSum
		fs := d.FTL().Stats()
		x["ftl.host_pages"] += float64(fs.HostPages)
		x["ftl.nand_pages"] += float64(fs.NANDPages)
	}
	x["ssd.read_lat_ns_sum"] = float64(readLat)
	x["gpu.sm_util"] = j.env.GPU.MeanSMUtilization()
	if j.cam != nil {
		st := j.cam.Stats()
		x["cam.batches"] = float64(st.Batches)
		x["cam.requests"] = float64(st.Requests)
		x["cam.commands"] = float64(st.Commands)
		x["cam.cycles"] = j.cam.BackendStats().Cycles
	}
	if j.bam != nil {
		st := j.bam.Stats()
		x["bam.timeouts"] = float64(st.Timeouts)
		x["bam.failed_blocks"] = float64(st.FailedBlocks)
	}
}

// childMain runs one pass in this process and reports it on stdout: a
// plan line, checkpoints, and a result line. With cpuprofile set it
// records a CPU profile of the whole pass.
func childMain(spec passSpec, cpuprofile string) error {
	em := emitter{os.Stdout}
	if cpuprofile == "" {
		em.emit("result", runPass(spec, em))
		return nil
	}
	f, err := os.Create(cpuprofile)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	r := runPass(spec, em)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return err
	}
	em.emit("result", r)
	return nil
}
