package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"camsim/internal/bam"
	"camsim/internal/cam"
	"camsim/internal/gpu"
	"camsim/internal/kvcache"
	"camsim/internal/nvme"
	"camsim/internal/oskernel"
	"camsim/internal/platform"
	"camsim/internal/sim"
	"camsim/internal/sortx"
	"camsim/internal/xfer"
)

// passSpec names one pass: one backend driven through one workload's
// inputs, generated from the seed. A pass is the unit the benchmark runs
// in its own child process.
type passSpec struct {
	Workload string
	Backend  string
	Seed     uint64
	Tiny     bool // scaled-down inputs for the self-tests
}

// job is a built pass, ready to run: the simulated process that performs
// the workload and checks its output, and the hooks read after the run.
type job struct {
	env *platform.Env
	ops uint64 // operations the pass attempts
	// main runs inside the simulation: the workload, then its output check.
	main func(p *sim.Proc)
	// tokens reports decode progress (kv-serve only; nil elsewhere).
	tokens func() uint64
	// finish records the pass's exact results and failures once the
	// simulation is quiescent.
	finish func(r *passResult)
	// cam and bam are the pass's drivers when it uses them, read for the
	// per-driver counters.
	cam *cam.Manager
	bam *bam.System
	// camLat reports every CAM batch's publish-to-completion latency when
	// the pass sees its batches (io-rand drives CAM directly).
	camLat func() []sim.Time
}

// setupSpans holds the host (CPU) seconds of the construction steps
// before the first engine event.
type setupSpans struct {
	platformNew, driverNew, kvNew float64
}

func timed(d *float64, f func()) {
	c := cpuSeconds()
	f()
	*d += cpuSeconds() - c
}

type workload struct {
	name     string
	backends []string
	build    func(spec passSpec, sp *setupSpans) *job
}

var workloads = []workload{
	{"io-rand", []string{"CAM", "BaM", "SPDK", "POSIX"}, buildIORand},
	{"sort", []string{"CAM", "SPDK", "POSIX"}, buildSort},
	{"kv-serve", []string{"CAM", "BaM", "SPDK"}, buildKV},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// ---- io-rand: Fig 8's shape at 12 SSDs ----

const ioBlock = 4096

type ioShape struct {
	batch, batches, outstanding int
	span                        uint64 // block ids drawn from [0, span)
	sampleEvery                 int    // every n-th written block is stamped and read back
}

func ioShapeFor(tiny bool) ioShape {
	if tiny {
		return ioShape{batch: 256, batches: 3, outstanding: 2, span: 1 << 16, sampleEvery: 8}
	}
	return ioShape{batch: 4096, batches: 12, outstanding: 2, span: 1 << 21, sampleEvery: 48}
}

// ioStamp is the content of a stamped block's first 32 bytes: a pure
// function of (seed, block), so any write order leaves the same bytes.
func ioStamp(seed, blk uint64) [32]byte {
	var s [32]byte
	x := seed*0x9e3779b97f4a7c15 ^ blk
	for i := 0; i < 4; i++ {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		binary.LittleEndian.PutUint64(s[8*i:], z^z>>31)
	}
	return s
}

// ioInputs is one seed's block streams: random reads, random writes, and
// the sorted sample of written blocks that carry a stamp.
type ioInputs struct {
	reads, writes [][]uint64
	stamped       map[uint64]bool
	sample        []uint64
}

func ioGen(sh ioShape, seed uint64) ioInputs {
	rng := sim.NewRNG(seed)
	draw := func() [][]uint64 {
		out := make([][]uint64, sh.batches)
		for b := range out {
			out[b] = make([]uint64, sh.batch)
			for i := range out[b] {
				out[b][i] = uint64(rng.Int63n(int64(sh.span)))
			}
		}
		return out
	}
	in := ioInputs{reads: draw(), writes: draw(), stamped: map[uint64]bool{}}
	for b, blocks := range in.writes {
		for i, blk := range blocks {
			if (b*sh.batch+i)%sh.sampleEvery == 0 && !in.stamped[blk] {
				in.stamped[blk] = true
				in.sample = append(in.sample, blk)
			}
		}
	}
	sort.Slice(in.sample, func(i, j int) bool { return in.sample[i] < in.sample[j] })
	return in
}

// ioDev is how io-rand drives a GPU-side backend: start one batch at a
// buffer offset and get back the call that waits for it and reports its
// failed blocks.
type ioDev interface {
	start(p *sim.Proc, write bool, blocks []uint64, off int64) (wait func(p *sim.Proc) int)
	buffer() *gpu.Buffer
}

type camDev struct {
	m   *cam.Manager
	buf *gpu.Buffer
	lat []sim.Time // publish-to-completion latency of every batch
}

func (d *camDev) buffer() *gpu.Buffer { return d.buf }

func (d *camDev) start(p *sim.Proc, write bool, blocks []uint64, off int64) func(*sim.Proc) int {
	var b *cam.Batch
	if write {
		b = d.m.WriteBack(p, blocks, d.buf, off)
	} else {
		b = d.m.Prefetch(p, blocks, d.buf, off)
	}
	return func(p *sim.Proc) int {
		d.m.Synchronize(p, b)
		d.lat = append(d.lat, b.Latency())
		return b.Errors()
	}
}

// bamDev runs BaM's synchronous gather/scatter, as Fig 8 does.
type bamDev struct {
	arr *bam.Array
	buf *gpu.Buffer
}

func (d *bamDev) buffer() *gpu.Buffer { return d.buf }

func (d *bamDev) start(p *sim.Proc, write bool, blocks []uint64, off int64) func(*sim.Proc) int {
	var failed int
	if write {
		failed = d.arr.Scatter(p, blocks, d.buf, off)
	} else {
		failed = d.arr.Gather(p, blocks, d.buf, off)
	}
	return func(*sim.Proc) int { return failed }
}

// spdkDev drives SPDK's staged list path into GPU memory.
type spdkDev struct {
	b   *xfer.SPDKBackend
	buf *gpu.Buffer
}

func (d *spdkDev) buffer() *gpu.Buffer { return d.buf }

func (d *spdkDev) start(p *sim.Proc, write bool, blocks []uint64, off int64) func(*sim.Proc) int {
	// The offsets slice is private to the batch: the backend reads it
	// until the transfer completes.
	offs := make([]int64, len(blocks))
	for i := range offs {
		offs[i] = off + int64(i)*ioBlock
	}
	var h xfer.Handle
	if write {
		h = d.b.StartScatterList(p, blocks, d.buf, offs)
	} else {
		h = d.b.StartGatherList(p, blocks, d.buf, offs)
	}
	return func(p *sim.Proc) int { h.Wait(p); return 0 }
}

// ioPhases records the simulated duration of each io-rand phase.
type ioPhases struct {
	read, write sim.Time
	failed      int // driver-reported failed blocks
	mismatched  int // read-back blocks whose bytes differ
}

func buildIORand(spec passSpec, sp *setupSpans) *job {
	sh := ioShapeFor(spec.Tiny)
	in := ioGen(sh, spec.Seed)
	j := &job{}
	timed(&sp.platformNew, func() { j.env = platform.New(platform.Options{SSDs: 12}) })
	env := j.env
	j.ops = uint64(2*sh.batches*sh.batch + len(in.sample))
	var ph ioPhases
	slotBytes := int64(sh.batch) * ioBlock

	if spec.Backend == "POSIX" {
		var st *oskernel.Stack
		timed(&sp.driverNew, func() {
			st = oskernel.NewStack(env.E, oskernel.POSIX, oskernel.DefaultConfig(oskernel.POSIX), env.HM, env.Devs)
		})
		j.main = func(p *sim.Proc) { ioPOSIX(p, st, in, spec.Seed, &ph) }
	} else {
		var d ioDev
		var cd *camDev
		timed(&sp.driverNew, func() {
			switch spec.Backend {
			case "CAM":
				cfg := cam.DefaultConfig(12)
				cfg.BlockBytes = ioBlock
				cfg.MaxBatch = sh.batch
				cfg.MaxOutstanding = sh.outstanding + 1
				m := cam.New(env.E, cfg, env.GPU, env.HM, env.Space, env.Fab, env.Devs)
				j.cam = m
				cd = &camDev{m: m, buf: m.Alloc("io", slotBytes*int64(sh.outstanding))}
				d = cd
			case "BaM":
				sys := bam.New(env.E, bam.DefaultConfig(), env.GPU, env.Devs)
				j.bam = sys
				d = &bamDev{arr: sys.NewArray(ioBlock), buf: env.GPU.Alloc("io", slotBytes*int64(sh.outstanding))}
			case "SPDK":
				b := xfer.NewSPDK(env, ioBlock, 8)
				d = &spdkDev{b: b, buf: b.Alloc("io", slotBytes*int64(sh.outstanding))}
			default:
				panic("camperf: io-rand has no backend " + spec.Backend)
			}
		})
		j.main = func(p *sim.Proc) { ioGPU(p, d, sh, in, spec.Seed, &ph) }
		if cd != nil {
			j.camLat = func() []sim.Time { return cd.lat }
		}
	}
	j.finish = func(r *passResult) {
		r.FailedOps += uint64(ph.failed + ph.mismatched)
		if ph.mismatched > 0 {
			r.Mismatch = fmt.Sprintf("io-rand: %d of %d read-back blocks differ from what was written", ph.mismatched, len(in.sample))
		}
		bytes := float64(sh.batches*sh.batch) * ioBlock
		r.Exact["io.read_GBps"] = bytes / ph.read.Seconds() / 1e9
		r.Exact["io.write_GBps"] = bytes / ph.write.Seconds() / 1e9
		if j.camLat != nil {
			r.Exact["cam.batch_lat_p50_us"] = percentile(j.camLat(), 50).Micros()
			r.Exact["cam.batch_lat_p98_us"] = percentile(j.camLat(), 98).Micros()
		}
	}
	return j
}

func ioGPU(p *sim.Proc, d ioDev, sh ioShape, in ioInputs, seed uint64, ph *ioPhases) {
	buf := d.buffer()
	slotBytes := int64(sh.batch) * ioBlock
	stampedAt := make([][]int64, sh.outstanding) // offsets stamped in each slot
	pipeline := func(write bool, batches [][]uint64) {
		var waits []func(*sim.Proc) int
		for b, blocks := range batches {
			slot := b % sh.outstanding
			base := int64(slot) * slotBytes
			if write {
				for _, off := range stampedAt[slot] {
					buf.Payload().SetZero(off, 32)
				}
				stampedAt[slot] = stampedAt[slot][:0]
				for i, blk := range blocks {
					if in.stamped[blk] {
						st := ioStamp(seed, blk)
						off := base + int64(i)*ioBlock
						buf.Payload().WriteAt(st[:], off)
						stampedAt[slot] = append(stampedAt[slot], off)
					}
				}
			}
			waits = append(waits, d.start(p, write, blocks, base))
			if len(waits) >= sh.outstanding {
				ph.failed += waits[0](p)
				waits = waits[1:]
			}
		}
		for _, w := range waits {
			ph.failed += w(p)
		}
	}
	t0 := p.Now()
	pipeline(false, in.reads)
	t1 := p.Now()
	pipeline(true, in.writes)
	ph.read, ph.write = t1-t0, p.Now()-t1

	// Read the stamped sample back and compare every byte of each block.
	got := make([]byte, ioBlock)
	for lo := 0; lo < len(in.sample); lo += sh.batch {
		hi := min(lo+sh.batch, len(in.sample))
		ph.failed += d.start(p, false, in.sample[lo:hi], 0)(p)
		for i, blk := range in.sample[lo:hi] {
			buf.Payload().ReadAt(got, int64(i)*ioBlock)
			if !ioBlockOK(got, seed, blk) {
				ph.mismatched++
			}
		}
	}
}

// ioBlockOK reports whether a read-back block holds its stamp followed by
// zeros.
func ioBlockOK(b []byte, seed, blk uint64) bool {
	st := ioStamp(seed, blk)
	var zero [ioBlock]byte
	return bytes.Equal(b[:32], st[:]) && bytes.Equal(b[32:], zero[32:len(b)])
}

// ioPOSIX runs the same streams through the kernel stack with 32
// synchronous workers, as Fig 8's fio-style POSIX load does.
func ioPOSIX(p *sim.Proc, st *oskernel.Stack, in ioInputs, seed uint64, ph *ioPhases) {
	const workers = 32
	phase := func(write bool, batches [][]uint64) {
		var flat []uint64
		for _, b := range batches {
			flat = append(flat, b...)
		}
		done := make([]*sim.Signal, workers)
		for w := 0; w < workers; w++ {
			w := w
			sig := p.Engine().NewSignal(fmt.Sprintf("io.w%d", w))
			done[w] = sig
			p.Engine().Go(fmt.Sprintf("io.w%d", w), func(wp *sim.Proc) {
				zero := make([]byte, ioBlock)
				blockBuf := make([]byte, ioBlock)
				for i := w; i < len(flat); i += workers {
					blk := flat[i]
					off := int64(blk) * ioBlock
					var s nvme.Status
					switch {
					case !write:
						s = st.ReadAt(wp, off, blockBuf)
					case in.stamped[blk]:
						stamp := ioStamp(seed, blk)
						copy(blockBuf, stamp[:])
						clear(blockBuf[32:])
						s = st.WriteAt(wp, off, blockBuf)
					default:
						s = st.WriteAt(wp, off, zero)
					}
					if s != nvme.StatusSuccess {
						ph.failed++
					}
				}
				sig.Fire()
			})
		}
		for _, sig := range done {
			p.Wait(sig)
		}
	}
	t0 := p.Now()
	phase(false, in.reads)
	t1 := p.Now()
	phase(true, in.writes)
	ph.read, ph.write = t1-t0, p.Now()-t1
	got := make([]byte, ioBlock)
	for _, blk := range in.sample {
		if st.ReadAt(p, int64(blk)*ioBlock, got) != nvme.StatusSuccess {
			ph.failed++
			continue
		}
		if !ioBlockOK(got, seed, blk) {
			ph.mismatched++
		}
	}
}

// percentile is the nearest-rank percentile of simulated durations.
func percentile(v []sim.Time, pct float64) sim.Time {
	if len(v) == 0 {
		return 0
	}
	s := append([]sim.Time(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(float64(len(s))*pct/100)) - 1
	return s[max(rank, 0)]
}

// ---- sort: Fig 10a's out-of-core mergesort ----

func sortConfig(tiny bool) sortx.Config {
	n := int64(1 << 23) // Fig 10a's largest full-scale size
	if tiny {
		n = 1 << 18
	}
	// 4·n bytes of keys in four runs: two real merge passes.
	return sortx.Config{NumInts: n, RunBytes: n, ChunkBytes: 256 << 10, SortRate: 4e9, MergeRate: 8e9}
}

func buildSort(spec passSpec, sp *setupSpans) *job {
	cfg := sortConfig(spec.Tiny)
	j := &job{ops: uint64(cfg.NumInts)}
	timed(&sp.platformNew, func() { j.env = platform.New(platform.Options{SSDs: 12}) })
	env := j.env
	var s *sortx.Sorter
	timed(&sp.driverNew, func() {
		var b xfer.Backend
		switch spec.Backend {
		case "CAM":
			cb := xfer.NewCAM(env, 65536, nil)
			j.cam = cb.M
			b = cb
		case "SPDK":
			// Quarter-chunk granules, as Fig 10a configures SPDK.
			b = xfer.NewSPDK(env, cfg.ChunkBytes/4, 8)
		case "POSIX":
			b = xfer.NewPOSIX(env, cfg.ChunkBytes, 4)
		default:
			panic("camperf: sort has no backend " + spec.Backend)
		}
		s = sortx.New(env, b, cfg)
	})
	var st sortx.Stats
	var verr error
	j.main = func(p *sim.Proc) {
		s.Fill(p, spec.Seed)
		st = s.Sort(p)
		verr = s.Verify(p)
	}
	j.finish = func(r *passResult) {
		if verr != nil {
			r.FailedOps = r.Ops
			r.Mismatch = verr.Error()
		}
		r.Exact["sort.elapsed_ns"] = float64(st.Elapsed)
		r.Exact["sort.run_ns"] = float64(st.RunPhase)
		r.Exact["sort.merge_ns"] = float64(st.MergePhase)
		r.Exact["sort.passes"] = float64(st.Passes)
		r.Exact["sort.bytes_moved"] = float64(st.BytesMoved)
	}
	return j
}

// ---- kv-serve: the kv experiment's full-scale serving shape ----

type kvShape struct{ sessions, prompt, decode, layers, dram, ssds int }

func kvShapeFor(tiny bool) kvShape {
	if tiny {
		return kvShape{sessions: 4, prompt: 224, decode: 24, layers: 4, dram: 96, ssds: 4}
	}
	return kvShape{sessions: 12, prompt: 448, decode: 64, layers: 8, dram: 512, ssds: 8}
}

// kvConfig expands the shape the way the kv experiment does: prompts
// stagger around the base so sessions cross block boundaries at different
// steps, and the tier is floored at the pinned working set.
func kvConfig(sh kvShape, seed uint64) (kvcache.Config, []kvcache.SessionSpec) {
	cfg := kvcache.DefaultConfig()
	cfg.Layers = sh.layers
	cfg.DRAMBlocks = sh.dram
	cfg.Seed = seed
	if floor := sh.sessions*sh.layers*(cfg.Window+cfg.TopK) + cfg.EvictBatch; cfg.DRAMBlocks < floor {
		cfg.DRAMBlocks = floor
	}
	specs := make([]kvcache.SessionSpec, sh.sessions)
	for i := range specs {
		prompt := sh.prompt + cfg.BlockTokens*(i%4) - cfg.BlockTokens/2*(i%3)
		specs[i] = kvcache.SessionSpec{Prompt: max(prompt, cfg.BlockTokens), Decode: sh.decode}
	}
	return cfg, specs
}

func buildKV(spec passSpec, sp *setupSpans) *job {
	sh := kvShapeFor(spec.Tiny)
	cfg, specs := kvConfig(sh, spec.Seed)
	j := &job{ops: uint64(sh.sessions * sh.decode)}
	timed(&sp.platformNew, func() { j.env = platform.New(platform.Options{SSDs: sh.ssds}) })
	env := j.env
	var lb xfer.ListBackend
	timed(&sp.driverNew, func() {
		switch spec.Backend {
		case "CAM":
			cb := xfer.NewCAM(env, cfg.BlockBytes, nil)
			j.cam = cb.M
			lb = cb
		case "BaM":
			sys := bam.New(env.E, bam.DefaultConfig(), env.GPU, env.Devs)
			j.bam = sys
			lb = xfer.NewBaM(env, sys, cfg.BlockBytes)
		case "SPDK":
			lb = xfer.NewSPDK(env, cfg.BlockBytes, 8)
		default:
			panic("camperf: kv-serve has no backend " + spec.Backend)
		}
	})
	var srv *kvcache.Server
	timed(&sp.kvNew, func() { srv = kvcache.New(env, lb, cfg, specs) })
	var verr error
	j.main = func(p *sim.Proc) {
		srv.Serve(p)
		verr = srv.Verify(p)
	}
	j.tokens = func() uint64 { return srv.Stats().DecodedTokens }
	j.finish = func(r *passResult) {
		if verr == nil {
			for i := range specs {
				if sum, expect := srv.SessionChecksum(i); sum != expect {
					verr = fmt.Errorf("kv-serve: session %d checksum %#x, expected %#x", i, sum, expect)
					break
				}
			}
		}
		if verr != nil {
			r.FailedOps = r.Ops
			r.Mismatch = verr.Error()
		}
		st := srv.Stats()
		r.Exact["kv.tok_s"] = st.TokensPerSec()
		r.Exact["kv.step_p98_us"] = srv.StepLatency().Percentile(98)
		r.Exact["kv.decoded"] = float64(st.DecodedTokens)
		r.Exact["kv.hits"] = float64(st.Hits)
		r.Exact["kv.prefetched"] = float64(st.Prefetched)
		r.Exact["kv.misses"] = float64(st.Misses)
		r.Exact["kv.fills"] = float64(st.Fills)
		r.Exact["kv.spills"] = float64(st.Spills)
		r.Exact["kv.clean_drops"] = float64(st.CleanDrops)
	}
	return j
}
