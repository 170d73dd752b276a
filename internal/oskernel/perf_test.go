package oskernel

import (
	"testing"

	"camsim/internal/nvme"
	"camsim/internal/sim"
)

// syncBatch is the number of 4 KiB syscalls one measured run issues.
const syncBatch = 100

// syncLoop returns a run that issues syncBatch 4 KiB syscalls of op from
// one process over a fixed set of blocks, then drains the engine.
func syncLoop(r *rig, s *Stack, op nvme.Opcode) func() {
	buf := make([]byte, 4096)
	io := func(p *sim.Proc) {
		for i := 0; i < syncBatch; i++ {
			off := int64(i) * 4096
			if op == nvme.OpRead {
				s.ReadAt(p, off, buf)
			} else {
				s.WriteAt(p, off, buf)
			}
		}
	}
	return func() {
		r.e.Go("app", io)
		r.e.Run()
	}
}

// TestAllocsPerSyncIO pins the steady-state allocation cost of a POSIX
// pread/pwrite on a 1-SSD rig at its measured value, zero. A warm run first
// grows the pools (submit machines, syscall records, delivery records,
// signal waiter lists) to their high-water mark, so a new per-I/O
// allocation anywhere on the path trips the ceiling.
func TestAllocsPerSyncIO(t *testing.T) {
	for _, op := range []nvme.Opcode{nvme.OpRead, nvme.OpWrite} {
		r := newRig(t, 1)
		s := NewStack(r.e, POSIX, DefaultConfig(POSIX), r.hm, r.devs)
		r.start()
		run := syncLoop(r, s, op)
		run()
		if avg := testing.AllocsPerRun(20, run); avg > 0 {
			t.Errorf("%v: allocs per %d-syscall batch = %.1f, want 0 (%.2f/syscall)",
				op, syncBatch, avg, avg/syncBatch)
		}
	}
}

// BenchmarkSyncRead4K measures one POSIX 4 KiB pread end to end on a 1-SSD
// rig: syscall record, kernel-path submission, device service, interrupt
// delivery and bounce copy-out.
func BenchmarkSyncRead4K(b *testing.B) {
	r := newRig(b, 1)
	s := NewStack(r.e, POSIX, DefaultConfig(POSIX), r.hm, r.devs)
	r.start()
	buf := make([]byte, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	r.e.Go("app", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			s.ReadAt(p, int64(i%syncBatch)*4096, buf)
		}
	})
	r.e.Run()
}
