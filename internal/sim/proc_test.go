package sim

import (
	"errors"
	"runtime"
	"strings"
	"testing"
)

//go:noinline
func writeNilMap(m map[string]int) { m["x"] = 1 }

// TestProcPanicReachesCaller pins the process-panic contract: a panic inside
// a process surfaces from Run on the caller's goroutine as a *ProcPanic that
// keeps the original value and names the process and the faulting function,
// and the engine can still be shut down afterwards.
func TestProcPanicReachesCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	e := New()
	never := e.NewSignal("never")
	e.Go("bystander", func(p *Proc) { p.Wait(never) })
	e.Go("pooled", func(p *Proc) {}) // leaves a process on the free list
	e.Go("faulty", func(p *Proc) {
		p.Sleep(5)
		writeNilMap(nil)
	})

	r := func() (r any) {
		defer func() { r = recover() }()
		e.Run()
		return nil
	}()
	pp, ok := r.(*ProcPanic)
	if !ok {
		t.Fatalf("Run panicked with %T %v, want *ProcPanic", r, r)
	}
	var re runtime.Error
	if !errors.As(pp, &re) || pp.Value != re {
		t.Fatalf("panic value %v does not unwrap to the original runtime error", pp.Value)
	}
	if !strings.Contains(re.Error(), "nil map") {
		t.Fatalf("original value = %q, want the nil-map write", re.Error())
	}
	first, _, _ := strings.Cut(pp.Error(), "\n")
	for _, want := range []string{`"faulty"`, "sim.writeNilMap", "proc_test.go:"} {
		if !strings.Contains(first, want) {
			t.Errorf("first line %q does not name %s", first, want)
		}
	}
	if !strings.Contains(pp.Stack, "writeNilMap") {
		t.Errorf("process stack does not contain the faulting frame:\n%s", pp.Stack)
	}
	if e.Now() != 5 {
		t.Errorf("clock = %v at the panic, want 5ns", e.Now())
	}

	e.Shutdown()
	if e.Live() != 0 {
		t.Fatalf("Live() = %d after Shutdown, want 0", e.Live())
	}
	waitGoroutines(t, before)
}
