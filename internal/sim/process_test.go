package sim

import (
	"runtime"
	"testing"
)

func TestProcessSleep(t *testing.T) {
	e := NewEngine()
	var wake Time
	e.Spawn("sleeper", func(p *Process) {
		p.Sleep(100 * Nanosecond)
		wake = p.Now()
	})
	e.Run()
	if wake != 100*Nanosecond {
		t.Fatalf("woke at %v, want 100ns", wake)
	}
}

func TestProcessInterleaving(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Spawn("a", func(p *Process) {
		order = append(order, "a0")
		p.Sleep(10 * Nanosecond)
		order = append(order, "a1")
		p.Sleep(20 * Nanosecond)
		order = append(order, "a2") // t=30
	})
	e.Spawn("b", func(p *Process) {
		order = append(order, "b0")
		p.Sleep(15 * Nanosecond)
		order = append(order, "b1")
		p.Sleep(10 * Nanosecond)
		order = append(order, "b2") // t=25
	})
	e.Run()
	want := []string{"a0", "b0", "a1", "b1", "b2", "a2"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestProcessDeterminism(t *testing.T) {
	run := func() []Time {
		e := NewEngine()
		var stamps []Time
		for i := 0; i < 8; i++ {
			d := Time(7*i%5+1) * Nanosecond
			e.Spawn("p", func(p *Process) {
				for j := 0; j < 10; j++ {
					p.Sleep(d)
					stamps = append(stamps, p.Now())
				}
			})
		}
		e.Run()
		return stamps
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestCondWaitSignal(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	ready := false
	var consumedAt Time
	e.Spawn("consumer", func(p *Process) {
		for !ready {
			c.Wait(p)
		}
		consumedAt = p.Now()
	})
	e.Spawn("producer", func(p *Process) {
		p.Sleep(50 * Nanosecond)
		ready = true
		c.Broadcast()
	})
	e.Run()
	if consumedAt != 50*Nanosecond {
		t.Fatalf("consumer resumed at %v, want 50ns", consumedAt)
	}
}

func TestCondBroadcastWakesAll(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	woken := 0
	for i := 0; i < 5; i++ {
		e.Spawn("w", func(p *Process) {
			c.Wait(p)
			woken++
		})
	}
	e.Spawn("b", func(p *Process) {
		p.Sleep(Nanosecond)
		if c.Waiters() != 5 {
			t.Errorf("waiters = %d, want 5", c.Waiters())
		}
		c.Broadcast()
	})
	e.Run()
	if woken != 5 {
		t.Fatalf("woken = %d, want 5", woken)
	}
}

func TestCondSignalWakesOne(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	woken := 0
	for i := 0; i < 3; i++ {
		e.Spawn("w", func(p *Process) {
			c.Wait(p)
			woken++
		})
	}
	e.Spawn("s", func(p *Process) {
		p.Sleep(Nanosecond)
		c.Signal()
		p.Sleep(Nanosecond)
		if woken != 1 {
			t.Errorf("after one Signal, woken = %d", woken)
		}
	})
	e.Run()
	if woken != 1 {
		t.Fatalf("woken = %d, want 1", woken)
	}
	e.Drain()
}

func TestParkUnpark(t *testing.T) {
	e := NewEngine()
	var target *Process
	var resumedAt Time
	target = e.Spawn("parker", func(p *Process) {
		p.Park()
		resumedAt = p.Now()
	})
	e.Spawn("waker", func(p *Process) {
		p.Sleep(33 * Nanosecond)
		target.Unpark()
	})
	e.Run()
	if resumedAt != 33*Nanosecond {
		t.Fatalf("resumed at %v, want 33ns", resumedAt)
	}
}

func TestBlockedAccounting(t *testing.T) {
	e := NewEngine()
	acc := map[int]Time{}
	e.Spawn("p", func(p *Process) {
		p.OnBlocked = func(cat int, d Time) { acc[cat] += d }
		p.Category = 1
		p.Sleep(10 * Nanosecond)
		p.SleepAs(2, 20*Nanosecond)
		if p.Category != 1 {
			t.Errorf("SleepAs did not restore category: %d", p.Category)
		}
		p.Sleep(5 * Nanosecond)
	})
	e.Run()
	if acc[1] != 15*Nanosecond {
		t.Fatalf("category 1 time = %v, want 15ns", acc[1])
	}
	if acc[2] != 20*Nanosecond {
		t.Fatalf("category 2 time = %v, want 20ns", acc[2])
	}
}

func TestDrainKillsParked(t *testing.T) {
	e := NewEngine()
	reached := false
	e.Spawn("stuck", func(p *Process) {
		p.Park()
		reached = true // must never run
	})
	e.Run()
	e.Drain()
	if reached {
		t.Fatal("killed process continued executing")
	}
	if len(e.procs) != 0 {
		t.Fatalf("process registry not empty after Drain: %d", len(e.procs))
	}
}

func TestProcessDone(t *testing.T) {
	e := NewEngine()
	p := e.Spawn("quick", func(p *Process) { p.Sleep(Nanosecond) })
	if p.Done() {
		t.Fatal("Done before running")
	}
	e.Run()
	if !p.Done() {
		t.Fatal("not Done after completion")
	}
}

func TestYieldOrdersAfterCurrentEvents(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Spawn("y", func(p *Process) {
		order = append(order, "before")
		p.Yield()
		order = append(order, "after")
	})
	e.After(0, func() { order = append(order, "event") })
	e.Run()
	// The spawned process starts first (scheduled first), yields, the plain
	// event runs, then the process resumes.
	want := []string{"before", "event", "after"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSleepZeroIsNoop(t *testing.T) {
	e := NewEngine()
	e.Spawn("z", func(p *Process) {
		p.Sleep(0)
		if p.Now() != 0 {
			t.Errorf("zero sleep advanced time to %v", p.Now())
		}
	})
	e.Run()
}

func TestNegativeSleepPanics(t *testing.T) {
	e := NewEngine()
	panicked := false
	e.Spawn("n", func(p *Process) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		p.Sleep(-Nanosecond)
	})
	e.Run()
	if !panicked {
		t.Fatal("negative sleep did not panic")
	}
}

func TestParkAsCategory(t *testing.T) {
	e := NewEngine()
	acc := map[int]Time{}
	var target *Process
	target = e.Spawn("p", func(p *Process) {
		p.OnBlocked = func(cat int, d Time) { acc[cat] += d }
		p.Category = 1
		p.ParkAs(7)
		if p.Category != 1 {
			t.Errorf("ParkAs did not restore category")
		}
	})
	e.Spawn("w", func(p *Process) {
		p.Sleep(25 * Nanosecond)
		target.Unpark()
	})
	e.Run()
	if acc[7] != 25*Nanosecond {
		t.Fatalf("category 7 time = %v", acc[7])
	}
}

func TestUnparkDoneProcessIsNoop(t *testing.T) {
	e := NewEngine()
	p := e.Spawn("q", func(p *Process) {})
	e.Run()
	p.Unpark() // must not panic or enqueue work for a dead process
	e.Run()
	if !p.Done() {
		t.Fatal("process not done")
	}
}

// TestProcessPanicSurfacesFromRun: a panic in a process body surfaces from
// Engine.Run on the engine's goroutine, where its caller can recover it,
// and leaves the process done so a later Unpark or Drain is a no-op.
func TestProcessPanicSurfacesFromRun(t *testing.T) {
	e := NewEngine()
	p := e.Spawn("boom", func(p *Process) {
		p.Sleep(Nanosecond)
		panic("boom")
	})
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want the body's panic value", r)
			}
		}()
		e.Run()
	}()
	if !p.Done() {
		t.Fatal("panicked process not Done")
	}
	p.Unpark()
	if e.Pending() != 0 {
		t.Fatalf("Unpark of a panicked process scheduled %d events", e.Pending())
	}
	e.Drain()
	if len(e.procs) != 0 {
		t.Fatalf("process registry not empty after Drain: %d", len(e.procs))
	}
}

// TestDrainTearsDownEveryState kills an unstarted, a parked and a sleeping
// process: the unstarted body never runs, and each started body unwinds
// from its blocking call, running its deferred functions exactly once.
func TestDrainTearsDownEveryState(t *testing.T) {
	e := NewEngine()
	deferred := map[string]int{}
	parked := e.Spawn("parked", func(p *Process) {
		defer func() { deferred["parked"]++ }()
		p.Park()
		t.Error("parked body continued after Drain")
	})
	sleeping := e.Spawn("sleeping", func(p *Process) {
		defer func() { deferred["sleeping"]++ }()
		p.Sleep(Millisecond)
		t.Error("sleeping body continued after Drain")
	})
	e.RunUntil(Microsecond)
	unstarted := e.Spawn("unstarted", func(p *Process) {
		t.Error("unstarted body ran")
	})
	e.Drain()
	e.Drain() // a second Drain finds nothing left to kill
	for _, name := range []string{"parked", "sleeping"} {
		if deferred[name] != 1 {
			t.Errorf("%s body's deferred function ran %d times, want 1", name, deferred[name])
		}
	}
	for _, p := range []*Process{parked, sleeping, unstarted} {
		if !p.Done() {
			t.Errorf("%s not Done after Drain", p.Name())
		}
	}
	if len(e.procs) != 0 {
		t.Fatalf("process registry not empty after Drain: %d", len(e.procs))
	}
}

// TestDrainReleasesGoroutines: every process's coroutine goroutine is gone
// once Drain returns, whatever state the process was in. The count may only
// fall: an earlier test's goroutine can still be exiting when it is taken.
func TestDrainReleasesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		e := NewEngine()
		e.Spawn("parked", func(p *Process) { p.Park() })
		e.Spawn("sleeping", func(p *Process) { p.Sleep(Millisecond) })
		e.Spawn("finished", func(p *Process) {})
		e.RunUntil(Nanosecond)
		e.Spawn("unstarted", func(p *Process) {})
		e.Drain()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d before, %d after 1000 spawn+Drain cycles", before, after)
	}
}
