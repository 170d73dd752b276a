// Package sim implements a deterministic discrete-event simulation engine.
//
// Every hardware actor in the reproduction (GPU streaming multiprocessors,
// CPU cores, SSD controllers, DMA engines, polling threads) runs as a
// simulation process on one shared virtual clock. Exactly one process is
// runnable at any instant, so a given seed always produces the same event
// trace, the same metrics, and the same data movement.
//
// Processes are coroutines (iter.Pull, proc.go): the engine switches
// directly into a process, the process runs until it blocks (Sleep, Wait,
// Acquire, ...) or returns, and control switches back to the engine. No
// channel or scheduler wakeup sits on that path. Virtual time only advances
// between events. A panic inside a process is re-raised by Run on the
// caller's goroutine as a *ProcPanic naming the process and the faulting
// frame.
//
// Hot-path device and driver logic need not be a process at all: a
// Callback scheduled with ScheduleCallback (or parked with WaitCallback,
// AcquireCallback) runs directly on the engine's stack and consumes exactly
// the events a process in its place would.
//
// The engine's hot path is allocation-free in steady state. Pending events
// are ordered by (at, seq) through three lanes per wheel (events.go): a ring
// for events at the current instant, a timing wheel of 8.192 µs buckets for
// the next ≈524 µs, and a 4-ary overflow heap beyond it. The dominant
// "resume process p at time t" event carries the process pointer instead of
// a closure, and finished process coroutines park on a free list for reuse
// by the next Go call. See DESIGN.md §7 and §12 for the profiles that
// motivated each of these.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration helpers. Virtual durations share the Time type so arithmetic
// stays free of conversions.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// MaxTime is the largest representable virtual instant.
const MaxTime Time = math.MaxInt64

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros reports t as floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

func (t Time) String() string {
	switch {
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t < Second:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.6fs", t.Seconds())
	}
}

// Engine owns the virtual clock and the pending-event queue.
// Engines are not safe for concurrent use from multiple OS threads; all
// interaction must come from the driving goroutine (before Run) or from
// within simulation processes and callbacks (during Run). Distinct engines
// are fully independent and may run on concurrent goroutines.
type Engine struct {
	now Time
	seq uint64
	// wheels are the per-shard event heaps: wheel 0 is the host/default
	// wheel, and each device claims its own via NewWheel. Dispatch order is
	// the global (at, seq) minimum across wheel heads, so the partition is
	// semantics-free — it exists to keep each heap shallow and cache-hot,
	// and to give the shard coordinator (see shard.go) a per-shard pending
	// set it can run in parallel windows.
	wheels []eventQueue
	// heads caches wheels[i].head() so the cross-wheel minimum scan touches
	// one compact array.
	heads   []wheelHead
	pending int
	// minW/secondHead cache the head scan across dispatch iterations: minW is
	// the argmin wheel and secondHead a lower bound on every other wheel's
	// head. Between full scans only minW pops (RunUntil dispatches solely from
	// the minimum), and pushes to other wheels fold into the bound, so the
	// next dispatch needs a full rescan only when minW's head climbs past
	// secondHead. minValid gates the cache (false after NewWheel/Shutdown).
	minW       int
	secondHead wheelHead
	minValid   bool
	// curWheel is the wheel of the event being executed right now; events
	// scheduled during execution land on the same wheel (a device's command
	// pipeline stays on the device's wheel), while process resumes always
	// follow the process's own pin.
	curWheel int
	// shard, when non-nil, is the cluster shard this engine belongs to;
	// used only to diagnose cross-shard affinity violations.
	shard *Shard
	// current is the process whose code is executing right now, nil while
	// the engine itself (or a plain callback) runs.
	current *Proc
	// live holds every started-but-unfinished process (order is
	// insertion order with swap-removal; Shutdown's kill order follows it).
	live []*Proc
	// free parks finished process coroutines for reuse by the next Go.
	free []*Proc

	stopped bool
}

// New returns an empty engine at virtual time zero.
func New() *Engine {
	return &Engine{
		wheels: make([]eventQueue, 1),
		heads:  []wheelHead{emptyHead},
	}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// NewWheel allocates a new event wheel and returns its index. Devices call
// this once at construction and start their callback state machines on it
// (ScheduleCallbackOn); everything the device schedules from inside its own
// events then stays on its wheel. Wheel 0 is the host/default wheel.
func (e *Engine) NewWheel() int {
	e.wheels = append(e.wheels, eventQueue{})
	e.heads = append(e.heads, emptyHead)
	e.minValid = false
	return len(e.wheels) - 1
}

// Wheels reports the number of event wheels (1 + one per NewWheel call).
func (e *Engine) Wheels() int { return len(e.wheels) }

// CurWheel reports the wheel of the event being executed right now (0 when
// called from outside the run loop). Callback state machines capture it at
// construction to pin their self-scheduled events the same way Go pins a
// process's resumes.
func (e *Engine) CurWheel() int { return e.curWheel }

// pushEvent inserts ev into wheel w and refreshes its cached head.
//
//camlint:hotpath
func (e *Engine) pushEvent(w int, ev event) {
	e.checkAffinity()
	q := &e.wheels[w]
	if ev.at <= e.now {
		// Zero-delay events land on the wheel's sorted FIFO lane instead
		// of the heap: at most the current instant, seq monotone, so
		// append order is dispatch order.
		q.pushNow(ev)
	} else {
		q.push(ev)
	}
	e.pending++
	if h := (wheelHead{at: ev.at, seq: ev.seq}); h.at < e.heads[w].at ||
		(h.at == e.heads[w].at && h.seq < e.heads[w].seq) {
		e.heads[w] = h
	}
	if e.minValid && w != e.minW {
		// Fold the push into the dispatch cache: a smaller head on another
		// wheel either steals the argmin (the old minimum is folded into the
		// lower bound) or tightens the bound. secondHead may undershoot the
		// true runner-up — that only costs a spare rescan, never a wrong pop.
		h := e.heads[w]
		m := e.heads[e.minW]
		if h.at < m.at || (h.at == m.at && h.seq < m.seq) {
			if m.at < e.secondHead.at || (m.at == e.secondHead.at && m.seq < e.secondHead.seq) {
				e.secondHead = m
			}
			e.minW = w
		} else if h.at < e.secondHead.at || (h.at == e.secondHead.at && h.seq < e.secondHead.seq) {
			e.secondHead = h
		}
	}
}

// Schedule runs fn at now+delay. A negative delay is treated as zero.
// Callbacks run on the engine goroutine and must not block.
func (e *Engine) Schedule(delay Time, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.seq++
	e.pushEvent(e.curWheel, event{at: e.now + delay, seq: e.seq, fn: fn})
}

// Callback is a pre-built scheduled action. Objects that run through many
// scheduled phases (an SSD command moving media → DMA → completion)
// implement it once and reschedule themselves, so the event queue carries a
// two-word interface instead of a freshly boxed closure per phase.
type Callback interface {
	Run()
}

// ScheduleCallback runs cb.Run at now+delay. It is the allocation-free
// sibling of Schedule: storing an interface whose dynamic type is a pointer
// allocates nothing.
func (e *Engine) ScheduleCallback(delay Time, cb Callback) {
	if delay < 0 {
		delay = 0
	}
	e.seq++
	e.pushEvent(e.curWheel, event{at: e.now + delay, seq: e.seq, cb: cb})
}

// ScheduleCallbackOn is ScheduleCallback targeting an explicit wheel instead
// of inheriting the current one. Devices use it to start their poller state
// machines on their own wheel from host context (Start runs on wheel 0).
func (e *Engine) ScheduleCallbackOn(wheel int, delay Time, cb Callback) {
	if delay < 0 {
		delay = 0
	}
	e.seq++
	e.pushEvent(wheel, event{at: e.now + delay, seq: e.seq, cb: cb})
}

// Timer is a cancellable scheduled callback. A Cancel before the due time
// makes the engine discard the event without running it — and without
// advancing the virtual clock to its timestamp, so an engine whose only
// remaining events are dead timers quiesces at the time of its last real
// event. Recovery deadlines lean on this: most command timeouts are armed
// and then beaten by the completion, and the abandoned timer must not
// stretch the measured run.
type Timer struct {
	fn   func()
	dead bool
	// done marks the scheduled event consumed — fired, or discarded by the
	// dispatch loop after a Cancel. A done timer's queue slot is gone, so
	// Revive can no longer reclaim it.
	done bool
}

// Run implements Callback; it is invoked by the engine, not by users.
func (t *Timer) Run() {
	t.done = true
	if !t.dead {
		t.fn()
	}
}

// Cancel discards the timer. Safe to call more than once, and after firing.
func (t *Timer) Cancel() {
	t.dead = true
	t.fn = nil
}

// Revive re-arms a canceled timer whose event is still pending in the
// queue, restoring fn; it reports whether the pending event could be
// reclaimed. A revived timer fires at its original due time, so callers
// must be content with an early fire (and typically re-check their own
// deadline and re-arm from the callback). Deadline pollers lean on this to
// park and re-park without pushing a fresh far-horizon event per cycle: the
// one pending event flips between live and dead instead.
func (t *Timer) Revive(fn func()) bool {
	if t.done {
		return false
	}
	t.dead, t.fn = false, fn
	return true
}

// ScheduleTimer runs fn at now+delay unless the returned timer is canceled
// first. A negative delay is treated as zero.
func (e *Engine) ScheduleTimer(delay Time, fn func()) *Timer {
	t := &Timer{fn: fn}
	e.ScheduleCallback(delay, t)
	return t
}

// scheduleResume queues the allocation-free fast-path event that hands
// control to p at now+delay. Every internal wakeup (Sleep, Signal.Fire,
// Store.Put, Resource.Release, Go) goes through here instead of boxing a
// fresh closure per event.
//
//camlint:hotpath
func (e *Engine) scheduleResume(p *Proc, delay Time) {
	if delay < 0 {
		delay = 0
	}
	e.seq++
	e.pushEvent(p.wheel, event{at: e.now + delay, seq: e.seq, p: p})
}

// Sleep suspends the process for d of virtual time (d<=0 is a yield to
// events already queued at the current instant).
func (p *Proc) Sleep(d Time) {
	p.e.scheduleResume(p, d)
	p.block()
}

// SleepUntil suspends the process until virtual time t (or yields if t has
// passed).
func (p *Proc) SleepUntil(t Time) {
	d := t - p.e.now
	if d < 0 {
		d = 0
	}
	p.Sleep(d)
}

// Yield reschedules the process behind all events pending at the current
// instant.
func (p *Proc) Yield() { p.Sleep(0) }

// Run processes events until none remain or Stop is called. It returns the
// final virtual time.
func (e *Engine) Run() Time { return e.RunUntil(MaxTime) }

// RunUntil processes events with timestamps <= deadline. Events beyond the
// deadline remain queued; the clock is left at min(deadline, last event).
// Dispatch order is the strict global (at, seq) minimum across all wheels,
// so the wheel partition never changes behavior — only locality.
//
//camlint:hotpath
func (e *Engine) RunUntil(deadline Time) Time {
	e.stopped = false
	for e.pending > 0 && !e.stopped {
		// Cross-wheel minimum. Fast path: the cached argmin still beats the
		// secondHead lower bound, so no other wheel can hold an earlier
		// event (pops only ever happen here, and pushes maintain the cache).
		// Ties are impossible between live events (seq is unique), and an
		// all-empty tie at (MaxTime, ^0) exits via the deadline check.
		var w int
		var h wheelHead
		if m := e.heads[e.minW]; e.minValid &&
			(m.at < e.secondHead.at || (m.at == e.secondHead.at && m.seq <= e.secondHead.seq)) {
			w, h = e.minW, m
		} else {
			// Full scan of the compact head cache; rebuild the runner-up
			// bound alongside the minimum.
			w = 0
			h = e.heads[0]
			second := emptyHead
			for i := 1; i < len(e.heads); i++ {
				hi := e.heads[i]
				if hi.at < h.at || (hi.at == h.at && hi.seq < h.seq) {
					second = h
					w, h = i, hi
				} else if hi.at < second.at || (hi.at == second.at && hi.seq < second.seq) {
					second = hi
				}
			}
			e.minW, e.secondHead, e.minValid = w, second, true
		}
		if h.at > deadline {
			break
		}
		q := &e.wheels[w]
		ev := q.popMin()
		e.heads[w] = q.head()
		e.pending--
		if t, ok := ev.cb.(*Timer); ok && t.dead {
			t.done = true
			continue // canceled: discard without advancing the clock
		}
		if ev.at > e.now {
			e.now = ev.at
		}
		e.curWheel = w
		switch {
		case ev.p != nil:
			e.runProc(ev.p)
		case ev.cb != nil:
			ev.cb.Run()
		default:
			ev.fn()
		}
	}
	e.curWheel = 0
	return e.now
}

// Stop makes Run return after the currently executing event completes.
// Pending events stay queued, so Run can be called again to continue.
func (e *Engine) Stop() { e.stopped = true }

// Shutdown releases every process goroutine the engine still owns: processes
// left blocked when the run reached quiescence (a controller waiting on a
// doorbell that will never ring) and finished processes parked on the free
// list. Each is woken with a kill flag and unwinds via panic/recover, running
// its deferred cleanup on the way out; pending events are then discarded.
//
// Call it after Run returns, never from inside a running simulation. The
// engine is spent afterwards: metrics and state remain readable, but no new
// processes or events should be added. Without Shutdown an abandoned engine
// leaks one goroutine per blocked or parked process until process exit —
// harmless for a handful of engines, fatal for a harness that builds
// thousands.
func (e *Engine) Shutdown() {
	if e.current != nil {
		panic("sim: Shutdown called from inside a running simulation")
	}
	// Killed processes may spawn or finish others from deferred cleanup;
	// both loops re-check length every iteration to absorb that.
	for len(e.live) > 0 {
		e.kill(e.live[len(e.live)-1])
	}
	for len(e.free) > 0 {
		p := e.free[len(e.free)-1]
		e.free[len(e.free)-1] = nil
		e.free = e.free[:len(e.free)-1]
		e.kill(p)
	}
	e.wheels = make([]eventQueue, 1)
	e.heads = []wheelHead{emptyHead}
	e.pending = 0
	e.minW = 0
	e.minValid = false
	e.curWheel = 0
}

// Pending reports the number of queued events across all wheels.
func (e *Engine) Pending() int { return e.pending }

// Live reports the number of started-but-unfinished processes.
func (e *Engine) Live() int { return len(e.live) }

// sigWaiter is one parked waiter on a Signal: a process (resumed via the
// allocation-free fast path on its own wheel) or a callback (scheduled on
// the wheel it registered with). Both consume exactly one event with one
// sequence number when the signal fires, in registration order, so swapping
// a process waiter for a callback waiter never perturbs the event trace.
type sigWaiter struct {
	p     *Proc
	cb    Callback
	wheel int
	// inline runs cb synchronously inside Fire instead of scheduling an
	// event (see WaitInline).
	inline bool
}

// Signal is a one-shot event: processes Wait on it (or callbacks register
// via WaitCallback), someone Fires it. After firing, Wait returns
// immediately. Fire is idempotent.
type Signal struct {
	e       *Engine
	name    string
	fired   bool
	waiters []sigWaiter
}

// NewSignal creates an unfired signal.
func (e *Engine) NewSignal(name string) *Signal {
	return &Signal{e: e, name: name}
}

// Fired reports whether the signal has fired.
func (s *Signal) Fired() bool { return s.fired }

// Fire wakes all waiters at the current virtual time. Firing twice is a
// no-op.
func (s *Signal) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	// Take ownership of the waiter list before running anything: an inline
	// waiter may Reset this signal and re-arm waiters mid-loop, and those
	// must land on a fresh list, not overwrite entries still being walked.
	ws := s.waiters
	s.waiters = nil
	for i := range ws {
		w := ws[i]
		ws[i] = sigWaiter{}
		switch {
		case w.p != nil:
			s.e.scheduleResume(w.p, 0)
		case w.inline:
			w.cb.Run()
		default:
			s.e.seq++
			s.e.pushEvent(w.wheel, event{at: s.e.now, seq: s.e.seq, cb: w.cb})
		}
	}
	if s.waiters == nil {
		// Keep the backing array: a signal that is re-armed with Reset and
		// waited on again reuses it instead of growing a fresh one.
		s.waiters = ws[:0]
	}
}

// Reset re-arms a fired signal so it can be waited on and fired again.
// It must not be called while processes are still waiting.
func (s *Signal) Reset() {
	if len(s.waiters) != 0 {
		panic("sim: Reset on Signal with waiters: " + s.name)
	}
	s.fired = false
}

// Wait blocks the process until the signal fires (returns immediately if it
// already has).
//
//camlint:hotpath
func (p *Proc) Wait(s *Signal) {
	if s.fired {
		return
	}
	s.waiters = append(s.waiters, sigWaiter{p: p}) //camlint:allow hotalloc -- Fire recycles the backing array; steady state appends into retained capacity
	p.block()
}

// WaitCallback registers cb to be scheduled on the given wheel when the
// signal fires. It is the callback-state-machine analogue of Wait: a poller
// that has drained its work parks here and is re-entered by a direct call
// instead of a coroutine switch. If the signal has already fired the
// callback is scheduled immediately; pollers that must not consume an event
// in that case check Fired() first, exactly as process loops do before Wait.
//
//camlint:hotpath
func (s *Signal) WaitCallback(wheel int, cb Callback) {
	if s.fired {
		s.e.seq++
		s.e.pushEvent(wheel, event{at: s.e.now, seq: s.e.seq, cb: cb})
		return
	}
	s.waiters = append(s.waiters, sigWaiter{cb: cb, wheel: wheel}) //camlint:allow hotalloc -- Fire recycles the backing array; steady state appends into retained capacity
}

// WaitInline registers cb to run synchronously inside Fire, at the firing
// instant, instead of through a scheduled event. It is for tiny relay
// callbacks on hot signals (a CQ-post forwarder, a doorbell nudge) where
// the event hop would double the cost of the edge: the callback runs in
// the firer's stack frame, so it must be reentrancy-safe and must not
// assume the firer has finished its own state update beyond the signal.
// If the signal has already fired, cb runs immediately.
//
//camlint:hotpath
func (s *Signal) WaitInline(cb Callback) {
	if s.fired {
		cb.Run()
		return
	}
	s.waiters = append(s.waiters, sigWaiter{cb: cb, inline: true}) //camlint:allow hotalloc -- Fire recycles the backing array; steady state appends into retained capacity
}

// WaitTimeout blocks until the signal fires or d elapses. It reports whether
// the signal fired (true) or the timeout hit (false).
func (p *Proc) WaitTimeout(s *Signal, d Time) bool {
	if s.fired {
		return true
	}
	if d <= 0 {
		return false
	}
	expired := false
	// The timer and the signal race; the timer only acts if p still waits
	// on s (Fire removes waiters synchronously, so at an exact tie the
	// already-processed Fire wins and the timer becomes a no-op instead of
	// resuming p a second time). Whichever wins resumes p; expired tells
	// the two apart.
	s.waiters = append(s.waiters, sigWaiter{p: p})
	t := p.e.ScheduleTimer(d, func() {
		for i, w := range s.waiters {
			if w.p == p {
				s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
				expired = true
				p.e.runProc(p)
				return
			}
		}
	})
	p.block()
	if expired {
		return false
	}
	t.Cancel()
	return true
}

// CancelWaitCallback removes a callback waiter registered with WaitCallback
// before the signal fires, reporting whether it was still registered. It is
// the callback analogue of WaitTimeout's timer path: a deadline timer that
// beats the signal deregisters the poller and re-enters it directly; if the
// signal's Fire already consumed the waiter (an exact-instant tie), the
// cancel fails and the timer becomes a no-op instead of a double wake.
func (s *Signal) CancelWaitCallback(cb Callback) bool {
	for i, w := range s.waiters {
		if w.cb == cb {
			s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
			return true
		}
	}
	return false
}
