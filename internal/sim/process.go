//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

// Process is a cooperative coroutine running simulated software. Its body
// runs on a runtime coroutine (iter.Pull): the engine resumes it by calling
// next and it hands control back by calling yield, each a direct coroutine
// switch with no trip through the Go scheduler. Exactly one of the two runs
// at any instant, so simulations remain fully deterministic.
//
// A panic in the body ends the process (Done reports true) and surfaces
// from the engine call that resumed it, on the engine's goroutine. Drain
// kills a live process: an unstarted body never runs, and a parked body
// unwinds from the call that parked it, running its deferred functions,
// by a panic that Spawn recovers. A body must therefore not swallow that
// panic with a bare recover(): a deferred recover must re-panic any value
// it does not own.
//
// All Process methods except Done must be called from within the process's
// own body function.
type Process struct {
	eng   *Engine
	name  string
	next  func() (struct{}, bool) // engine -> process: run to the next yield
	stop  func()                  // engine: kill, unwinding a parked body
	yield func(struct{}) bool     // process -> engine: false once stopped
	done  bool

	// Category is an opaque tag identifying what the simulated software is
	// currently doing (compute, data transfer, buffering stall, ...). Time
	// accounting layers read and restore it around blocking operations.
	Category int

	// OnBlocked, if non-nil, is invoked with (category, duration) every time
	// the process spends simulated time blocked. Higher layers use it to
	// attribute processor time.
	OnBlocked func(category int, d Time)
}

// procKilled is the panic value that unwinds a killed process's body.
type procKilled struct{}

// Spawn creates a process executing body and schedules it to start at the
// current simulation time. The body runs entirely inside engine time.
func (e *Engine) Spawn(name string, body func(p *Process)) *Process {
	p := &Process{eng: e, name: name}
	e.procs[p] = struct{}{}
	// The sequence must stay Spawn's first function literal, with its
	// defer nested inside it: host profiles recognize process stacks by
	// the frame name sim.(*Engine).Spawn.func1.
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		defer func() {
			p.done = true
			delete(e.procs, p)
			if r := recover(); r != nil {
				if _, killed := r.(procKilled); !killed {
					panic(r)
				}
			}
		}()
		p.yield = yield
		body(p)
	})
	e.AfterEvent(0, procResume, p, 0)
	return p
}

// procResume is the shared typed-event handler that resumes a process. Every
// unpark, yield, and sleep wakeup in the simulation dispatches through this
// one function; using a method value (p.resume) instead would allocate a
// fresh closure per scheduling.
//
//lint:hotpath
func procResume(recv any, _ uint64) { recv.(*Process).resume() }

// resume runs the process until it yields back or finishes. Must be called
// from engine context (an event callback).
func (p *Process) resume() {
	if !p.done {
		p.next()
	}
}

// suspend parks the process, handing control back to the engine. Must be
// called from process context. A kill unwinds the body from here.
func (p *Process) suspend() {
	if !p.yield(struct{}{}) {
		panic(procKilled{})
	}
}

// kill terminates a parked or unstarted process. Called from engine context.
// done is set here because stop never enters an unstarted sequence.
func (p *Process) kill() {
	if !p.done {
		p.done = true
		p.stop()
	}
}

// Engine returns the engine this process runs on.
func (p *Process) Engine() *Engine { return p.eng }

// Name returns the process's diagnostic name.
func (p *Process) Name() string { return p.name }

// Done reports whether the process has ended: its body returned or
// panicked, or Drain killed it.
func (p *Process) Done() bool { return p.done }

// Now returns the current simulated time.
func (p *Process) Now() Time { return p.eng.now }

// Sleep blocks the process for d picoseconds of simulated time, attributing
// the time to the process's current Category.
//
// When the wake-up would be the very next event the active run loop
// executes (see Engine.wakeIsNext), Sleep fast-forwards instead: it
// consumes the wake-up's sequence number, advances the clock and counts
// the event exactly as the round trip through the heap would, then
// returns without suspending — no heap push or pop, no coroutine switches.
// Nothing can observe the difference: no other event runs in between, and
// Events, Now and the OnBlocked accounting read the same values. A Step
// called outside a run loop, and every Sleep under RunWhile, always takes
// the round trip.
//
//lint:hotpath
func (p *Process) Sleep(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: process %s sleeping negative duration %v", p.name, d))
	}
	if d == 0 {
		return
	}
	e := p.eng
	start := e.now
	if wake := start + d; e.wakeIsNext(wake) {
		e.seq++
		e.now = wake
		e.stepped++
		e.ffwd++
	} else {
		e.AtEvent(wake, procResume, p, 0)
		p.suspend()
	}
	p.account(start)
}

// SleepAs is Sleep with an explicit accounting category, restoring the
// previous category afterwards.
//
//lint:hotpath
func (p *Process) SleepAs(category int, d Time) {
	prev := p.Category
	p.Category = category
	p.Sleep(d)
	p.Category = prev
}

// Yield reschedules the process at the current time, after all events
// already scheduled for this instant.
//
//lint:hotpath
func (p *Process) Yield() {
	p.eng.AfterEvent(0, procResume, p, 0)
	p.suspend()
}

// Park suspends the process until another component calls Unpark (directly
// or via a Cond). Blocked time is charged to the current Category.
//
//lint:hotpath
func (p *Process) Park() {
	start := p.eng.now
	p.suspend()
	p.account(start)
}

// ParkAs is Park with an explicit accounting category.
//
//lint:hotpath
func (p *Process) ParkAs(category int) {
	prev := p.Category
	p.Category = category
	p.Park()
	p.Category = prev
}

// Unpark schedules a parked process to resume at the current time. It is a
// no-op for done processes. Safe to call from engine or process context.
//
//lint:hotpath
func (p *Process) Unpark() {
	if p.done {
		return
	}
	p.eng.AfterEvent(0, procResume, p, 0)
}

func (p *Process) account(start Time) {
	if p.OnBlocked != nil {
		if d := p.eng.now - start; d > 0 {
			p.OnBlocked(p.Category, d)
		}
	}
}

// Cond is a condition variable for processes. The zero value is not usable;
// create with NewCond.
type Cond struct {
	eng     *Engine
	waiters []*Process
	// spare is the waiter array retired by the last Broadcast, reused as
	// the next waiters backing store so steady-state wait/broadcast cycles
	// ping-pong between two buffers instead of growing a fresh array each
	// cycle.
	spare []*Process
}

// NewCond returns a condition variable bound to engine e.
func NewCond(e *Engine) *Cond { return &Cond{eng: e} }

// Wait parks p until Broadcast or Signal. As with sync.Cond, callers must
// re-check their predicate in a loop: wakeups are broadcast at time t and a
// competing process may consume the resource first.
//
//lint:hotpath
func (c *Cond) Wait(p *Process) {
	c.waiters = append(c.waiters, p) //lint:allow noalloc waiter list ping-pongs with Broadcast's retired buffer; it grows only to the peak waiter count
	p.Park()
}

// WaitAs is Wait with an explicit accounting category for the blocked time.
//
//lint:hotpath
func (c *Cond) WaitAs(p *Process, category int) {
	prev := p.Category
	p.Category = category
	c.Wait(p)
	p.Category = prev
}

// Broadcast wakes all waiting processes and retires the waiter array into
// spare, keeping the wakeup order (FIFO arrival) identical to an
// allocate-per-cycle implementation.
//
//lint:hotpath
func (c *Cond) Broadcast() {
	ws := c.waiters
	c.waiters, c.spare = c.spare[:0], ws
	for i, p := range ws {
		ws[i] = nil // drop the reference; the array outlives the wakeup
		p.Unpark()
	}
}

// Signal wakes the longest-waiting process, if any.
//
//lint:hotpath
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	p := c.waiters[0]
	c.waiters = c.waiters[1:]
	p.Unpark()
}

// Waiters returns the number of processes currently waiting.
func (c *Cond) Waiters() int { return len(c.waiters) }
