package sim

import (
	"runtime"
	"testing"
	"time"
)

// The hot-path ceilings below pin the engine's allocation behavior: plain
// events, process wakeups, and store hand-offs must stay allocation-free in
// steady state. Each test prewarms first so one-time capacity growth (event
// queue, rings, free lists, goroutine spawns) is excluded, then measures a
// batch and asserts a small absolute ceiling rather than exact zero to stay
// robust against incidental runtime allocations.

const allocBatch = 100

func TestAllocsPerScheduledEvent(t *testing.T) {
	e := New()
	fn := func() {}
	warm := func() {
		for i := 0; i < allocBatch; i++ {
			e.Schedule(Time(i), fn)
		}
		e.Run()
	}
	warm()
	avg := testing.AllocsPerRun(20, warm)
	if avg > 2 {
		t.Fatalf("allocs per %d-event batch = %.1f, want <= 2 (%.3f/event)",
			allocBatch, avg, avg/allocBatch)
	}
}

func TestAllocsPerSleep(t *testing.T) {
	e := New()
	sleeper := func(p *Proc) {
		for i := 0; i < allocBatch; i++ {
			p.Sleep(1)
		}
	}
	warm := func() {
		e.Go("sleeper", sleeper)
		e.Run()
	}
	warm()
	avg := testing.AllocsPerRun(20, warm)
	if avg > 2 {
		t.Fatalf("allocs per %d-sleep process run = %.1f, want <= 2 (%.3f/wakeup)",
			allocBatch, avg, avg/allocBatch)
	}
}

func TestAllocsPerStoreOp(t *testing.T) {
	e := New()
	s := NewStore[int](e, "s")
	producer := func(p *Proc) {
		for i := 0; i < allocBatch; i++ {
			s.Put(i)
			p.Sleep(1)
		}
	}
	consumer := func(p *Proc) {
		for i := 0; i < allocBatch; i++ {
			if _, ok := s.Get(p); !ok {
				return
			}
		}
	}
	warm := func() {
		// Consumer first so half the Gets block and exercise the
		// getter-record recycling path, not just the buffered fast path.
		e.Go("consumer", consumer)
		e.Go("producer", producer)
		e.Run()
	}
	warm()
	avg := testing.AllocsPerRun(20, warm)
	if avg > 2 {
		t.Fatalf("allocs per %d-item Put/Get run = %.1f, want <= 2 (%.3f/op)",
			allocBatch, avg, avg/allocBatch)
	}
}

// TestAllocsPerProcSwitch pins process switching at zero allocations: a
// process parking and resuming (Sleep(0), a Wait/Fire/Reset round trip)
// and Go handing out a pooled process must not allocate once warm.
func TestAllocsPerProcSwitch(t *testing.T) {
	e := New()
	defer e.Shutdown()
	ping, pong := e.NewSignal("ping"), e.NewSignal("pong")
	sleeper := func(p *Proc) {
		for i := 0; i < allocBatch; i++ {
			p.Sleep(0)
		}
	}
	pinger := func(p *Proc) {
		for i := 0; i < allocBatch; i++ {
			ping.Fire()
			p.Wait(pong)
			pong.Reset()
		}
	}
	ponger := func(p *Proc) {
		for i := 0; i < allocBatch; i++ {
			p.Wait(ping)
			ping.Reset()
			pong.Fire()
		}
	}
	noop := func(*Proc) {}
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"sleep0", func() { e.Go("sleeper", sleeper); e.Run() }},
		{"signal", func() { e.Go("pinger", pinger); e.Go("ponger", ponger); e.Run() }},
		{"reuse", func() { e.Go("noop", noop); e.Run() }},
	} {
		c.run() // warm: pooled processes, queue and waiter capacity
		if avg := testing.AllocsPerRun(20, c.run); avg != 0 {
			t.Errorf("%s: %.1f allocs per run, want 0", c.name, avg)
		}
	}
}

// BenchmarkProcSwitch measures the cost of handing control between the
// engine and processes: sleep0 is one process parking and resuming once per
// op; signal is one Wait/Fire/Reset round trip between two processes (two
// parks and two resumes per op).
func BenchmarkProcSwitch(b *testing.B) {
	b.Run("sleep0", func(b *testing.B) {
		e := New()
		defer e.Shutdown()
		e.Go("sleeper", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				p.Sleep(0)
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		e.Run()
	})
	b.Run("signal", func(b *testing.B) {
		e := New()
		defer e.Shutdown()
		ping, pong := e.NewSignal("ping"), e.NewSignal("pong")
		e.Go("pinger", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				ping.Fire()
				p.Wait(pong)
				pong.Reset()
			}
		})
		e.Go("ponger", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				p.Wait(ping)
				ping.Reset()
				pong.Fire()
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		e.Run()
	})
}

// TestRingReleasedSlotsCleared is the regression test for the slice-shift
// retain bug: the old FIFO queues advanced with `q = q[1:]`, which kept
// every dequeued element reachable through the backing array until the next
// reallocation. Ring slots must be zeroed as they are released.
func TestRingReleasedSlotsCleared(t *testing.T) {
	var r ring[*int]
	for i := 0; i < 5; i++ {
		v := i
		r.pushBack(&v)
	}
	for r.len() > 0 {
		r.popFront()
	}
	for i, p := range r.buf {
		if p != nil {
			t.Fatalf("released ring slot %d still pins %v", i, *p)
		}
	}
}

func TestStoreReleasedSlotsCleared(t *testing.T) {
	e := New()
	s := NewStore[*int](e, "s")
	for i := 0; i < 5; i++ {
		v := i
		s.Put(&v)
	}
	for {
		if _, ok := s.TryGet(); !ok {
			break
		}
	}
	for i, p := range s.items.buf {
		if p != nil {
			t.Fatalf("drained store slot %d still pins %v", i, *p)
		}
	}
}

func TestShutdownReleasesBlockedProcesses(t *testing.T) {
	before := runtime.NumGoroutine()

	e := New()
	sig := e.NewSignal("never")
	st := NewStore[int](e, "empty")
	res := e.NewResource("narrow", 1)
	cleanups := 0
	e.Go("wait-signal", func(p *Proc) {
		defer func() { cleanups++ }()
		p.Wait(sig)
	})
	e.Go("wait-store", func(p *Proc) {
		defer func() { cleanups++ }()
		st.Get(p)
	})
	e.Go("hold", func(p *Proc) {
		defer func() { cleanups++ }()
		res.Acquire(p, 1)
		p.Wait(sig)
	})
	e.Go("wait-resource", func(p *Proc) {
		defer func() { cleanups++ }()
		res.Acquire(p, 1)
	})
	e.Go("finishes", func(p *Proc) { p.Sleep(10) })
	e.Run()

	if e.Live() != 4 {
		t.Fatalf("Live() = %d after quiescence, want 4 blocked processes", e.Live())
	}
	e.Shutdown()
	if e.Live() != 0 {
		t.Fatalf("Live() = %d after Shutdown, want 0", e.Live())
	}
	if cleanups != 4 {
		t.Fatalf("deferred cleanups ran %d times, want 4", cleanups)
	}
	waitGoroutines(t, before)
}

// waitGoroutines fails the test unless the goroutine count falls back to
// about before. Exited goroutines are reaped asynchronously; poll with
// generous headroom instead of demanding an exact count.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d long after Shutdown, baseline %d",
				runtime.NumGoroutine(), before)
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

func TestShutdownReleasesPooledProcesses(t *testing.T) {
	before := runtime.NumGoroutine()
	e := New()
	for i := 0; i < 8; i++ {
		e.Go("worker", func(p *Proc) { p.Sleep(1) })
	}
	e.Run()
	if e.Live() != 0 {
		t.Fatalf("Live() = %d, want 0 (all workers finished)", e.Live())
	}
	e.Shutdown()
	waitGoroutines(t, before)
}

func TestShutdownInsideRunPanics(t *testing.T) {
	e := New()
	e.Go("self-shutdown", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("Shutdown from inside a running simulation did not panic")
			}
			// The test proc must still unwind through the normal path.
		}()
		e.Shutdown()
	})
	e.Run()
	e.Shutdown()
}
