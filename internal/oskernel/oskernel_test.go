package oskernel

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"

	"camsim/internal/hostmem"
	"camsim/internal/mem"
	"camsim/internal/nvme"
	"camsim/internal/pcie"
	"camsim/internal/sim"
	"camsim/internal/ssd"
)

type rig struct {
	e    *sim.Engine
	hm   *hostmem.Memory
	devs []*ssd.Device
}

func newRig(t testing.TB, nDevs int) *rig {
	t.Helper()
	e := sim.New()
	space := mem.NewSpace()
	fab := pcie.New(e, pcie.DefaultConfig())
	hm := hostmem.New(e, space, hostmem.DefaultConfig())
	var devs []*ssd.Device
	for i := 0; i < nDevs; i++ {
		cfg := ssd.DefaultConfig()
		cfg.Seed = uint64(i + 1)
		d := ssd.New(e, fmt.Sprintf("nvme%d", i), cfg, fab, space)
		devs = append(devs, d)
	}
	return &rig{e: e, hm: hm, devs: devs}
}

func (r *rig) start() {
	for _, d := range r.devs {
		d.Start()
	}
}

func TestSyncReadAfterWrite(t *testing.T) {
	r := newRig(t, 1)
	s := NewStack(r.e, POSIX, DefaultConfig(POSIX), r.hm, r.devs)
	r.start()
	src := make([]byte, 8192)
	for i := range src {
		src[i] = byte(i % 251)
	}
	dst := make([]byte, 8192)
	r.e.Go("app", func(p *sim.Proc) {
		if st := s.WriteAt(p, 4096, src); st != nvme.StatusSuccess {
			t.Errorf("write status %v", st)
		}
		if st := s.ReadAt(p, 4096, dst); st != nvme.StatusSuccess {
			t.Errorf("read status %v", st)
		}
	})
	r.e.Run()
	if !bytes.Equal(src, dst) {
		t.Fatal("POSIX read-after-write mismatch")
	}
}

func TestRAID0StripingRoundTrip(t *testing.T) {
	r := newRig(t, 4)
	cfg := DefaultConfig(Libaio)
	s := NewStack(r.e, Libaio, cfg, r.hm, r.devs)
	r.start()
	// Span several stripes so data crosses all devices.
	n := int(cfg.StripeBytes) * 6
	src := make([]byte, n)
	rng := sim.NewRNG(99)
	for i := range src {
		src[i] = byte(rng.Uint64())
	}
	dst := make([]byte, n)
	r.e.Go("app", func(p *sim.Proc) {
		s.WriteAt(p, 0, src)
		s.ReadAt(p, 0, dst)
	})
	r.e.Run()
	if !bytes.Equal(src, dst) {
		t.Fatal("RAID0 round trip mismatch")
	}
	// All four devices must have seen writes.
	for i, d := range r.devs {
		if d.Stats().WriteCmds == 0 {
			t.Errorf("device %d received no writes — striping broken", i)
		}
	}
}

func TestLocateStriping(t *testing.T) {
	r := newRig(t, 3)
	cfg := DefaultConfig(POSIX)
	s := NewStack(r.e, POSIX, cfg, r.hm, r.devs)
	c := cfg.StripeBytes
	cases := []struct {
		off     int64
		wantDev int
		wantLBA uint64
	}{
		{0, 0, 0},
		{c, 1, 0},
		{2 * c, 2, 0},
		{3 * c, 0, uint64(c) / nvme.LBASize},
		{3*c + 512, 0, uint64(c)/nvme.LBASize + 1},
	}
	for _, tc := range cases {
		dev, lba := s.locate(tc.off)
		if dev != tc.wantDev || lba != tc.wantLBA {
			t.Errorf("locate(%d) = (%d,%d), want (%d,%d)", tc.off, dev, lba, tc.wantDev, tc.wantLBA)
		}
	}
}

// nopCallback is an onSubmitted continuation that does nothing.
type nopCallback struct{}

func (nopCallback) Run() {}

func TestStripeCrossingSubmitPanics(t *testing.T) {
	r := newRig(t, 2)
	cfg := DefaultConfig(POSIX)
	s := NewStack(r.e, POSIX, cfg, r.hm, r.devs)
	r.start()
	panicked := false
	r.e.Go("app", func(p *sim.Proc) {
		defer func() { panicked = recover() != nil }()
		s.SubmitAsync(&Request{Op: nvme.OpRead, Offset: cfg.StripeBytes - 512,
			Pay: mem.WrapBytes(make([]byte, 1024)), N: 1024}, nopCallback{})
	})
	r.e.Run()
	if !panicked {
		t.Fatal("stripe-crossing SubmitAsync did not panic")
	}
}

func TestUnalignedSubmitPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		off  int64
		n    int
	}{
		{"offset", 100, 512},
		{"length", 0, 100},
	} {
		r := newRig(t, 1)
		s := NewStack(r.e, POSIX, DefaultConfig(POSIX), r.hm, r.devs)
		r.start()
		panicked := false
		r.e.Go("app", func(p *sim.Proc) {
			defer func() { panicked = recover() != nil }()
			s.ReadAt(p, tc.off, make([]byte, tc.n))
		})
		r.e.Run()
		if !panicked {
			t.Fatalf("unaligned %s ReadAt did not panic", tc.name)
		}
	}
}

func TestSplitOnStripeBoundaries(t *testing.T) {
	r := newRig(t, 2)
	cfg := DefaultConfig(POSIX)
	s := NewStack(r.e, POSIX, cfg, r.hm, r.devs)
	c := cfg.StripeBytes
	pay := mem.WrapBytes(make([]byte, 3*c))
	reqs := s.Split(nil, nvme.OpWrite, c-4096, pay, 512, 2*c)
	want := []struct{ off, payOff, n int64 }{
		{c - 4096, 512, 4096},
		{c, 512 + 4096, c},
		{2 * c, 512 + 4096 + c, c - 4096},
	}
	if len(reqs) != len(want) {
		t.Fatalf("Split made %d chunks, want %d", len(reqs), len(want))
	}
	for i, w := range want {
		got := reqs[i]
		if got.Op != nvme.OpWrite || got.Pay != pay || got.Offset != w.off || got.PayOff != w.payOff || got.N != w.n {
			t.Errorf("chunk %d = {off %d payOff %d n %d}, want %+v", i, got.Offset, got.PayOff, got.N, w)
		}
	}
	// A recycled slice keeps the Done signals parked in its capacity.
	sig := r.e.NewSignal("kept")
	reqs[1].Done = sig
	reqs = s.Split(reqs, nvme.OpRead, 0, pay, 0, 2*c)
	if len(reqs) != 2 || reqs[1].Done != sig || reqs[0].Done != nil {
		t.Fatalf("Split did not preserve Done signals across reuse")
	}
}

// measureIOPS drives a stack with many worker threads at 4 KiB random
// access and returns achieved IOPS.
func measureIOPS(t *testing.T, kind StackKind, op nvme.Opcode, nDevs int) float64 {
	t.Helper()
	r := newRig(t, nDevs)
	s := NewStack(r.e, kind, DefaultConfig(kind), r.hm, r.devs)
	r.start()
	const workers = 32
	const perWorker = 40
	total := 0
	rng := sim.NewRNG(7)
	span := int64(nDevs) * (1 << 30)
	for w := 0; w < workers; w++ {
		seed := rng.Uint64()
		r.e.Go(fmt.Sprintf("w%d", w), func(p *sim.Proc) {
			lrng := sim.NewRNG(seed)
			buf := make([]byte, 4096)
			for i := 0; i < perWorker; i++ {
				off := (lrng.Int63n(span / 4096)) * 4096
				if op == nvme.OpRead {
					s.ReadAt(p, off, buf)
				} else {
					s.WriteAt(p, off, buf)
				}
				total++
			}
		})
	}
	end := r.e.Run()
	return float64(total) / end.Seconds()
}

func TestStackOrderingPOSIXSlowest(t *testing.T) {
	posix := measureIOPS(t, POSIX, nvme.OpRead, 1)
	aio := measureIOPS(t, Libaio, nvme.OpRead, 1)
	uringInt := measureIOPS(t, IOUringInt, nvme.OpRead, 1)
	uringPoll := measureIOPS(t, IOUringPoll, nvme.OpRead, 1)
	if !(posix < aio && aio < uringInt && uringInt < uringPoll) {
		t.Fatalf("stack ordering wrong: posix=%.0f aio=%.0f int=%.0f poll=%.0f",
			posix, aio, uringInt, uringPoll)
	}
	// Everything must sit below the device's 450K line (Fig 2a).
	if uringPoll >= 450_000 {
		t.Fatalf("io_uring poll %.0f IOPS reached the device line", uringPoll)
	}
	if posix < 100_000 || posix > 300_000 {
		t.Fatalf("POSIX read IOPS = %.0f, out of plausible band", posix)
	}
}

func TestWriteSlowerThanReadAllStacks(t *testing.T) {
	for _, k := range Kinds() {
		rd := measureIOPS(t, k, nvme.OpRead, 1)
		wr := measureIOPS(t, k, nvme.OpWrite, 1)
		if wr >= rd {
			t.Errorf("%v: write %.0f IOPS >= read %.0f IOPS", k, wr, rd)
		}
	}
}

func TestKernelPathDoesNotScaleWithDevices(t *testing.T) {
	one := measureIOPS(t, POSIX, nvme.OpRead, 1)
	many := measureIOPS(t, POSIX, nvme.OpRead, 4)
	// The serialized kernel path means RAID0 adds little (allow 25%).
	if many > one*1.25 {
		t.Fatalf("POSIX scaled with devices: 1 dev %.0f, 4 devs %.0f", one, many)
	}
}

func TestLayerBreakdownFSPlusIOMapOver34Pct(t *testing.T) {
	for _, k := range Kinds() {
		r := newRig(t, 1)
		s := NewStack(r.e, k, DefaultConfig(k), r.hm, r.devs)
		r.start()
		r.e.Go("app", func(p *sim.Proc) {
			buf := make([]byte, 4096)
			for i := 0; i < 50; i++ {
				s.ReadAt(p, int64(i)*4096, buf)
			}
		})
		r.e.Run()
		bd := s.LayerBreakdown()
		if got := bd["filesystem"] + bd["iomap"]; got < 0.34 {
			t.Errorf("%v: fs+iomap = %.2f, want > 0.34 (paper Fig 3)", k, got)
		}
	}
}

func TestCPUCountersAccumulate(t *testing.T) {
	r := newRig(t, 1)
	s := NewStack(r.e, Libaio, DefaultConfig(Libaio), r.hm, r.devs)
	r.start()
	r.e.Go("app", func(p *sim.Proc) {
		buf := make([]byte, 4096)
		for i := 0; i < 10; i++ {
			s.ReadAt(p, int64(i)*4096, buf)
		}
	})
	r.e.Run()
	if s.Stat.Requests != 10 {
		t.Fatalf("requests = %d", s.Stat.Requests)
	}
	if s.Stat.PerRequestInstructions() < 1000 {
		t.Fatalf("per-request instructions = %.0f, implausibly low", s.Stat.PerRequestInstructions())
	}
	if s.Stat.PerRequestCycles() <= s.Stat.PerRequestInstructions() {
		t.Fatal("kernel stack should have cycles > instructions (IPC < 1)")
	}
}

func TestDRAMTrafficIsTwicePayload(t *testing.T) {
	r := newRig(t, 1)
	s := NewStack(r.e, POSIX, DefaultConfig(POSIX), r.hm, r.devs)
	r.start()
	const n = 64 * 4096
	r.e.Go("app", func(p *sim.Proc) {
		buf := make([]byte, 4096)
		for i := 0; i < 64; i++ {
			s.ReadAt(p, int64(i)*4096, buf)
		}
	})
	r.e.Run()
	if got := r.hm.TotalTraffic(); got != 2*n {
		t.Fatalf("DRAM traffic = %d, want %d (2x payload)", got, 2*n)
	}
}

func TestStackKindString(t *testing.T) {
	if POSIX.String() != "POSIX" || IOUringPoll.String() != "io_uring poll" {
		t.Fatal("StackKind.String broken")
	}
}

// TestMultiChunkSyncTiming pins the completion instant of every syscall in
// a contended multi-chunk mix: 12 workers issue stripe-crossing reads and
// writes of up to 80 pages over 3 devices with 4 tags each, so chunk
// completions race later chunks' submissions and tag waits. Any change to
// when a syscall returns changes the fingerprint; re-pin it only for an
// intended timing change.
func TestMultiChunkSyncTiming(t *testing.T) {
	want := map[StackKind]struct {
		end  sim.Time
		hash uint64
	}{
		POSIX:       {7289808, 0x26faacbe0f80bb5b},
		Libaio:      {6804181, 0x7587fc8f5761cfbd},
		IOUringInt:  {6693392, 0x824db19b5d25d03a},
		IOUringPoll: {6481779, 0xc2c1cc4b5aa70086},
	}
	for _, kind := range Kinds() {
		r := newRig(t, 3)
		cfg := DefaultConfig(kind)
		cfg.QueueDepth = 4
		s := NewStack(r.e, kind, cfg, r.hm, r.devs)
		r.start()
		h := fnv.New64a()
		for w := 0; w < 12; w++ {
			r.e.Go(fmt.Sprintf("w%d", w), func(p *sim.Proc) {
				rng := sim.NewRNG(uint64(w + 1))
				buf := make([]byte, 5*cfg.StripeBytes/2)
				for i := 0; i < 20; i++ {
					off := rng.Int63n(64) * 4096 * 8
					if i%3 == 0 {
						s.WriteAt(p, off, buf[:4096*(1+rng.Int63n(80))])
					} else {
						s.ReadAt(p, off, buf[:4096*(1+rng.Int63n(80))])
					}
					fmt.Fprintf(h, "%d:%d@%d", w, i, p.Now())
				}
			})
		}
		end := r.e.Run()
		if got := want[kind]; end != got.end || h.Sum64() != got.hash {
			t.Errorf("%v: end %d fingerprint %#x, want end %d fingerprint %#x",
				kind, end, h.Sum64(), got.end, got.hash)
		}
	}
}
