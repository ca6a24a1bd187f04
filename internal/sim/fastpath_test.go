package sim

import (
	"fmt"
	"testing"
)

// Edge cases of Sleep's fast-forward: a Sleep that skips the heap must
// leave exactly the order, clock and event count of the queued round trip.

// checkOrder fails t unless got equals want element for element.
func checkOrder(t *testing.T, got, want []string) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("order %v, want %v", got, want)
	}
}

// TestTimerArmedAtNow: a timer for the current instant fires in schedule
// order among the other events for this instant, and stopping one before
// it fires removes it.
func TestTimerArmedAtNow(t *testing.T) {
	e := NewEngine()
	var order []string
	rec := func(name string) Handler {
		return func(any, uint64) { order = append(order, name) }
	}
	e.AtEvent(0, rec("a"), nil, 0)
	tm := e.AtTimer(0, rec("timer"), nil, 0)
	e.AtEvent(0, rec("b"), nil, 0)
	stopped := e.AtTimer(0, rec("stopped"), nil, 0)
	e.AtEvent(0, rec("c"), nil, 0)
	if !tm.Active() || tm.ev.idx < 0 {
		t.Fatal("timer at now is not pending in the heap")
	}
	if !stopped.Stop() {
		t.Fatal("Stop on a pending timer at now reported false")
	}
	if e.Pending() != 4 {
		t.Fatalf("Pending = %d, want 4", e.Pending())
	}
	e.Run()
	checkOrder(t, order, []string{"a", "timer", "b", "c"})
}

// sleeper spawns a process that logs "name@time" around one Sleep(d).
func sleeper(e *Engine, order *[]string, name string, d Time) *Process {
	return e.Spawn(name, func(p *Process) {
		*order = append(*order, fmt.Sprintf("%s@%v", name, p.Now()))
		p.Sleep(d)
		*order = append(*order, fmt.Sprintf("%s@%v", name, p.Now()))
	})
}

// TestSleepWakeTiesWithPostedEvent: at the wake time, a network post made
// at the same instant as the Sleep pops after the wake-up (its posting
// ordinal is nonzero), while a post or a plain event scheduled earlier
// pops before it. Either way the order is the plain heap's.
func TestSleepWakeTiesWithPostedEvent(t *testing.T) {
	h := func(order *[]string, name string) Handler {
		return func(any, uint64) { *order = append(*order, name) }
	}
	t.Run("posted-same-instant", func(t *testing.T) {
		e := NewEngine()
		var order []string
		e.AtEventPosted(10*Nanosecond, 3, 1, h(&order, "post"), nil, 0)
		sleeper(e, &order, "p", 10*Nanosecond)
		e.Run()
		checkOrder(t, order, []string{"p@0ps", "p@10.000ns", "post"})
	})
	t.Run("posted-earlier", func(t *testing.T) {
		e := NewEngine()
		var order []string
		e.AtEventPosted(10*Nanosecond, 3, 1, h(&order, "post"), nil, 0)
		e.Spawn("p", func(p *Process) {
			p.Sleep(5 * Nanosecond)
			order = append(order, "p@"+p.Now().String())
			p.Sleep(5 * Nanosecond) // wake (10, 5) loses to the post's (10, 0)
			order = append(order, "p@"+p.Now().String())
		})
		e.Run()
		checkOrder(t, order, []string{"p@5.000ns", "post", "p@10.000ns"})
	})
	t.Run("plain-earlier", func(t *testing.T) {
		e := NewEngine()
		var order []string
		e.Spawn("p", func(p *Process) {
			e.AtEvent(10*Nanosecond, h(&order, "plain"), nil, 0) // (10, 0) with a lower seq
			p.Sleep(10 * Nanosecond)
			order = append(order, "p@"+p.Now().String())
		})
		e.Run()
		checkOrder(t, order, []string{"plain", "p@10.000ns"})
	})
}

// TestSleepWakeOnLoopBound: RunWindow's end is exclusive and RunUntil's is
// inclusive, so a wake-up landing exactly on the bound stays queued for
// RunWindow and runs for RunUntil — fast-forward or not.
func TestSleepWakeOnLoopBound(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Spawn("p", func(p *Process) {
		p.Sleep(10 * Nanosecond)
		order = append(order, "p@"+p.Now().String())
		p.Sleep(10 * Nanosecond)
		order = append(order, "p@"+p.Now().String())
	})
	e.RunWindow(10 * Nanosecond)
	if len(order) != 0 || e.Now() != 10*Nanosecond || e.Pending() != 1 || e.Events() != 1 {
		t.Fatalf("after RunWindow(10ns): order %v, now %v, pending %d, events %d; want wake-up still queued",
			order, e.Now(), e.Pending(), e.Events())
	}
	e.RunUntil(20 * Nanosecond)
	checkOrder(t, order, []string{"p@10.000ns", "p@20.000ns"})
	if e.Events() != 3 || e.Pending() != 0 {
		t.Fatalf("events %d, pending %d after RunUntil; want 3, 0", e.Events(), e.Pending())
	}
}

// TestSleepAfterStopInSameEvent: once Stop is called, not even the
// sleeping process's own wake-up runs in the current loop.
func TestSleepAfterStopInSameEvent(t *testing.T) {
	e := NewEngine()
	woke := false
	e.Spawn("p", func(p *Process) {
		e.Stop()
		p.Sleep(Nanosecond)
		woke = true
	})
	e.Run()
	if woke || e.Now() != 0 || e.Pending() != 1 || e.Events() != 1 {
		t.Fatalf("woke %v, now %v, pending %d, events %d; want the wake-up queued, unrun",
			woke, e.Now(), e.Pending(), e.Events())
	}
	e.Drain()
}

// TestSleepCondFalseAtWakeBoundary: RunWhile asks its condition once
// before every event, so a Sleep under it never fast-forwards. When the
// condition turns false at a sleeping process's boundary the wake-up
// stays queued.
func TestSleepCondFalseAtWakeBoundary(t *testing.T) {
	e := NewEngine()
	done, woke, calls := false, false, 0
	e.Spawn("p", func(p *Process) {
		p.Sleep(Nanosecond) // cond still true here
		done = true
		p.Sleep(Nanosecond)
		woke = true
	})
	e.RunWhile(func() bool { calls++; return !done })
	if woke || e.Now() != Nanosecond || e.Pending() != 1 || e.Events() != 2 || calls != 3 {
		t.Fatalf("woke %v, now %v, pending %d, events %d, cond calls %d; want false, 1ns, 1, 2, 3",
			woke, e.Now(), e.Pending(), e.Events(), calls)
	}
	if e.SleepFastForwards() != 0 {
		t.Fatalf("%d wake-ups fast-forwarded under RunWhile, want 0", e.SleepFastForwards())
	}
	e.Run()
	if !woke || e.Now() != 2*Nanosecond || e.Events() != 3 {
		t.Fatalf("after Run: woke %v, now %v, events %d", woke, e.Now(), e.Events())
	}
}

// TestStepNeverFastForwards: a Step called outside a run loop executes one
// event, so a Sleep inside it always queues its wake-up.
func TestStepNeverFastForwards(t *testing.T) {
	e := NewEngine()
	steps := 0
	e.Spawn("p", func(p *Process) {
		for i := 0; i < 3; i++ {
			p.Sleep(Nanosecond)
		}
	})
	for e.Step() {
		steps++
		if e.Now() != Time(steps-1)*Nanosecond {
			t.Fatalf("step %d ran at %v", steps, e.Now())
		}
	}
	if steps != 4 || e.Events() != 4 {
		t.Fatalf("steps %d, events %d; want 4, 4", steps, e.Events())
	}
}

// TestSleepFastForwardSkipsQueue: a lone sleeper under Run never queues a
// wake-up — every one is the next event — while its clock, event count
// and blocked-time accounting match the queued round trip.
func TestSleepFastForwardSkipsQueue(t *testing.T) {
	e := NewEngine()
	var blocked Time
	p := e.Spawn("p", func(p *Process) {
		for i := 1; i <= 5; i++ {
			p.Sleep(Time(i) * Nanosecond)
		}
	})
	p.OnBlocked = func(_ int, d Time) { blocked += d }
	e.Run()
	if e.SleepFastForwards() != 5 {
		t.Fatalf("%d of 5 wake-ups fast-forwarded", e.SleepFastForwards())
	}
	if e.Now() != 15*Nanosecond || e.Events() != 6 || blocked != 15*Nanosecond {
		t.Fatalf("now %v, events %d, blocked %v; want 15ns, 6, 15ns", e.Now(), e.Events(), blocked)
	}
}
