//go:build go1.23

// The build constraint raises this file's language version to go1.23 for
// iter.Pull while go.mod stays at go 1.22: modules that build against
// camsim's sources with a go 1.22 line of their own then keep building.

package sim

import (
	"fmt"
	"iter"
	"runtime"
	"runtime/debug"
	"strings"
)

// killSignal is the panic value used to unwind a process goroutine during
// Shutdown. It is recovered by the process loop and never escapes.
type killSignal struct{}

// Proc is a simulation process: a coroutine interleaved with the engine so
// that exactly one process runs at a time. Control passes by a direct
// coroutine switch (iter.Pull), not a channel handoff, so a resume or park
// wakes no other OS thread. Finished processes are recycled: a *Proc handle
// is only valid until its function returns.
type Proc struct {
	e    *Engine
	name string
	fn   func(p *Proc)
	// next runs the process's coroutine until it parks in yield or its
	// goroutine exits; yield, called from inside the coroutine, hands
	// control back to whoever called next.
	next   func() (struct{}, bool)
	yield  func(struct{}) bool
	killed bool
	// fault is set when the process function panicked; the engine re-raises
	// it on its own stack once the coroutine has exited.
	fault *ProcPanic
	// wheel is the event wheel this process's resume events land on.
	wheel int
	// liveIdx is this process's index in e.live, -1 when not live.
	liveIdx int
}

// Name reports the name the process was started with.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine the process belongs to.
func (p *Proc) Engine() *Engine { return p.e }

// Now reports the current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// Go starts fn as a new simulation process. The process begins executing at
// the current virtual time, after already-queued events at that time. Its
// resume events land on the wheel of the event that spawned it (wheel 0
// when started from outside the run loop).
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	var p *Proc
	if n := len(e.free); n > 0 {
		p = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		p.name = name
	} else {
		p = &Proc{e: e, name: name}
		// The coroutine ends only by returning from loop (Shutdown's kill
		// or a fault), so its stop function is never needed.
		p.next, _ = iter.Pull(p.loop)
	}
	p.fn = fn
	p.wheel = e.curWheel
	e.addLive(p)
	e.scheduleResume(p, 0)
	return p
}

// loop is the body of every process coroutine: run one process function per
// wakeup, then park on the engine's free list until Go hands out this
// coroutine again. A kill wakeup (Shutdown) or a fault exits the loop, which
// ends the goroutine.
func (p *Proc) loop(yield func(struct{}) bool) {
	p.yield = yield
	e := p.e
	for !p.killed {
		p.invoke()
		if p.killed || p.fault != nil {
			break
		}
		p.fn = nil
		e.unlive(p)
		e.free = append(e.free, p)
		yield(struct{}{})
	}
	e.unlive(p)
}

// invoke runs the process function, absorbing the Shutdown unwind panic and
// recording any other panic in p.fault while the faulting frames are still
// on the stack.
func (p *Proc) invoke() {
	defer func() {
		if r := recover(); r != nil {
			if _, kill := r.(killSignal); kill && p.killed {
				return
			}
			p.fault = newProcPanic(p.name, r)
		}
	}()
	p.fn(p)
}

func (e *Engine) addLive(p *Proc) {
	p.liveIdx = len(e.live)
	e.live = append(e.live, p)
}

func (e *Engine) unlive(p *Proc) {
	i := p.liveIdx
	if i < 0 {
		return
	}
	last := len(e.live) - 1
	e.live[i] = e.live[last]
	e.live[i].liveIdx = i
	e.live[last] = nil
	e.live = e.live[:last]
	p.liveIdx = -1
}

// runProc transfers control to p and returns when it blocks or finishes.
// A panic in p's code is re-raised here, on the engine's stack, after the
// engine's own state is restored, so the caller of Run sees it and Shutdown
// still works.
func (e *Engine) runProc(p *Proc) {
	prev := e.current
	e.current = p
	p.next()
	e.current = prev
	if p.fault != nil {
		panic(p.fault)
	}
}

// block suspends the calling process until something resumes it.
// Must only be called from within that process.
func (p *Proc) block() {
	if p.killed {
		// Deferred cleanup running during a Shutdown unwind must not
		// re-enter the scheduler; keep unwinding instead.
		panic(killSignal{})
	}
	p.yield(struct{}{})
	if p.killed {
		panic(killSignal{})
	}
}

// kill wakes p with the killed flag set and returns once its goroutine has
// unwound and exited.
func (e *Engine) kill(p *Proc) {
	p.killed = true
	p.next()
	if p.fault != nil {
		panic(p.fault)
	}
}

// ProcPanic is the value the engine panics with when a process function
// panics. The process runs on its own goroutine, so the original panic's
// stack would otherwise be lost; ProcPanic carries it across.
type ProcPanic struct {
	Proc  string // name of the process that panicked
	Value any    // the original panic value
	Frame string // the function that raised the panic, with its file:line
	Stack string // the process goroutine's stack at the panic
}

func newProcPanic(name string, v any) *ProcPanic {
	pp := &ProcPanic{Proc: name, Value: v, Frame: "unknown frame", Stack: string(debug.Stack())}
	var pcs [64]uintptr
	frames := runtime.CallersFrames(pcs[:runtime.Callers(1, pcs[:])])
	// The frames above runtime.gopanic are the recovering defer; below it,
	// runtime frames (a map write, a nil dereference) lead to the caller's
	// frame that raised the panic.
	inPanic := false
	for {
		f, more := frames.Next()
		switch {
		case f.Function == "runtime.gopanic":
			inPanic = true
		case inPanic && !strings.HasPrefix(f.Function, "runtime.") &&
			!strings.HasPrefix(f.Function, "internal/runtime/"):
			pp.Frame = fmt.Sprintf("%s (%s:%d)", f.Function, f.File, f.Line)
			return pp
		}
		if !more {
			return pp
		}
	}
}

// Error names the process and the faulting frame on its first line, then
// appends the process's stack.
func (pp *ProcPanic) Error() string {
	return fmt.Sprintf("sim: process %q panicked in %s: %v\n\nprocess stack:\n%s",
		pp.Proc, pp.Frame, pp.Value, pp.Stack)
}

// Unwrap returns the original panic value when it is an error (a runtime
// error, for instance), so errors.As reaches it.
func (pp *ProcPanic) Unwrap() error {
	err, _ := pp.Value.(error)
	return err
}
