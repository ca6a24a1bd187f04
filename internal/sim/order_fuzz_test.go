package sim

import (
	"fmt"
	"sort"
	"testing"
)

// FuzzEngineOrder checks the engine's fast paths — Sleep's fast-forward
// and the bottom-up heap pop — against a reference queue: a plain sorted
// slice over the documented key (at, schedAt, ord, ordSeq, seq), with
// processes modelled as explicit state machines. The input decodes into
// a driver plan (Run, RunWhile, RunUntil, RunWindow, manual Steps) and an
// operation stream that every activation — an event
// handler firing or a process resuming — consumes from: At and AtEvent
// (zero-delay and future), AtEventPosted, AtEventStamped, AtTimer and
// Timer.Stop, Spawn, Unpark, Stop and, in process context, Sleep, Park and
// Yield. Both sides must produce the same log of (time, activation id,
// Events()) entries, the same RunWhile condition evaluations, the same
// blocked-time accounting, and the same clock and queue after every
// driver call.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte("\x03\x10\x21\x32\x43\x54\x00\x00\x00\x09\x02\x00\x01\x00\x00\x05\x00\x01\x0c\x03\x00\x02\x00\x00\x09\x01\x00\x06\x00\x01"))
	f.Add([]byte("\x02\x44\x13\x07\x00\x00\x00\x08\x00\x00\x09\x03\x00\x09\x03\x00\x07\x00\x01\x0a\x00\x00\x04\x02\x03\x03\x01\x02\x0b\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := checkEngineOrder(data); err != nil {
			t.Fatal(err)
		}
	})
}

// Operation kinds of the fuzz stream. In handler context the
// process-only operations (Sleep, Park, Yield) are no-ops.
const (
	opAt = iota
	opAtEvent
	opAtEventNow
	opPosted
	opStamped
	opTimer
	opTimerStop
	opUnpark
	opSpawn
	opSleep
	opPark
	opYield
	opStopOrSleep // Stop the engine one time in eight, else Sleep 1-3 ns
	numOps
)

// fuzzOp is one decoded operation.
type fuzzOp struct {
	kind int
	d    Time // delay
	back Time // AtEventStamped: how far schedAt lies before the event time
	src  int  // posting node; also the timer slot and the Unpark target
	pseq uint64
	stop bool // opStopOrSleep: Stop rather than Sleep
}

func decodeOps(b []byte) []fuzzOp {
	var ops []fuzzOp
	for ; len(b) >= 3; b = b[3:] {
		o := fuzzOp{
			kind: int(b[0]) % numOps,
			d:    Time(b[1]%6) * Nanosecond,
			back: Time(b[2]%4) * Nanosecond,
			src:  int(b[2]) % 4,
			pseq: uint64(b[2]/4) % 4,
		}
		if o.kind == opStopOrSleep {
			o.stop = b[1]%8 == 0
			o.d = Time(1+b[1]%3) * Nanosecond
		}
		ops = append(ops, o)
	}
	return ops
}

// driverCall is one run-loop call of the plan; param picks its bound.
type driverCall struct{ kind, param int }

const (
	drvRun = iota
	drvRunWhile
	drvRunUntil
	drvRunWindow
	drvSteps
	numDrivers
)

func decodePlan(data []byte) ([]driverCall, []fuzzOp) {
	if len(data) == 0 {
		return []driverCall{{drvRun, 0}}, nil
	}
	n := 1 + int(data[0])%4
	data = data[1:]
	var plan []driverCall
	for i := 0; i < n && len(data) > 0; i++ {
		plan = append(plan, driverCall{kind: int(data[0]) % numDrivers, param: int(data[0]) / numDrivers})
		data = data[1:]
	}
	return append(plan, driverCall{drvRun, 0}), decodeOps(data)
}

// logEntry is one activation: an event handler (id >= 0), a process
// resuming (id = -1-proc) or a Timer.Stop result (id -100 false, -101
// true), with the clock and Events() at that point.
type logEntry struct {
	at     Time
	id     int
	events uint64
}

// orderModel is what the shared operation interpreter needs from either
// side: the real engine or the reference queue.
type orderModel interface {
	now() Time
	schedule(kind int, t, schedAt Time, src int, pseq uint64)
	armTimer(slot int, t Time)
	stopTimer(slot int) bool
	unpark(j int)
	spawn()
	stop()
	record(id int)
}

const maxFuzzProcs = 4

// applyOp performs one non-blocking operation; the process-only kinds are
// no-ops here.
func applyOp(m orderModel, o fuzzOp) {
	now := m.now()
	switch o.kind {
	case opAt, opAtEvent:
		m.schedule(o.kind, now+o.d, now, 0, 0)
	case opAtEventNow:
		m.schedule(opAtEvent, now, now, 0, 0)
	case opPosted:
		m.schedule(opPosted, now+o.d, now, o.src, o.pseq)
	case opStamped:
		schedAt := now + o.d - o.back
		if schedAt < 0 {
			schedAt = 0
		}
		m.schedule(opStamped, now+o.d, schedAt, o.src, o.pseq)
	case opTimer:
		m.armTimer(o.src, now+o.d)
	case opTimerStop:
		if m.stopTimer(o.src) {
			m.record(-101)
		} else {
			m.record(-100)
		}
	case opUnpark:
		m.unpark(o.src)
	case opSpawn:
		m.spawn()
	case opStopOrSleep:
		if o.stop {
			m.stop()
		}
	}
}

// blocks reports whether o suspends a process (Sleep with d == 0 returns
// at once).
func blocks(o fuzzOp) bool {
	switch o.kind {
	case opSleep:
		return o.d > 0
	case opPark, opYield:
		return true
	case opStopOrSleep:
		return !o.stop
	}
	return false
}

// opStream is the operation stream both sides consume, one activation
// at a time; ids numbers the events scheduled from it.
type opStream struct {
	ops []fuzzOp
	pc  int
	ids int
}

func (s *opStream) next() (fuzzOp, bool) {
	if s.pc >= len(s.ops) {
		return fuzzOp{}, false
	}
	s.pc++
	return s.ops[s.pc-1], true
}

// realOrder drives the real engine.
type realOrder struct {
	opStream
	e         *Engine
	log       []logEntry
	procs     []*Process
	blocked   []Time
	timers    [4]Timer
	condCalls int
}

func (s *realOrder) now() Time { return s.e.Now() }

func (s *realOrder) record(id int) {
	s.log = append(s.log, logEntry{s.e.Now(), id, s.e.Events()})
}

func realOrderFire(recv any, arg uint64) { recv.(*realOrder).fire(int(arg)) }

func (s *realOrder) fire(id int) {
	s.record(id)
	if o, ok := s.next(); ok {
		applyOp(s, o)
	}
}

func (s *realOrder) schedule(kind int, t, schedAt Time, src int, pseq uint64) {
	id := s.ids
	s.ids++
	switch kind {
	case opAt:
		s.e.At(t, func() { s.fire(id) })
	case opAtEvent:
		s.e.AtEvent(t, realOrderFire, s, uint64(id))
	case opPosted:
		s.e.AtEventPosted(t, src, pseq, realOrderFire, s, uint64(id))
	case opStamped:
		s.e.AtEventStamped(t, schedAt, src, pseq, realOrderFire, s, uint64(id))
	}
}

func (s *realOrder) armTimer(slot int, t Time) {
	s.timers[slot] = s.e.AtTimer(t, realOrderFire, s, uint64(s.ids))
	s.ids++
}

func (s *realOrder) stopTimer(slot int) bool { return s.timers[slot].Stop() }

func (s *realOrder) unpark(j int) {
	if j < len(s.procs) {
		s.procs[j].Unpark()
	}
}

func (s *realOrder) stop() { s.e.Stop() }

func (s *realOrder) spawn() {
	j := len(s.procs)
	if j == maxFuzzProcs {
		return
	}
	s.blocked = append(s.blocked, 0)
	p := s.e.Spawn(fmt.Sprint("p", j), func(p *Process) {
		s.record(-1 - j)
		for {
			o, ok := s.next()
			if !ok {
				return
			}
			switch o.kind {
			case opSleep, opStopOrSleep:
				if o.kind == opStopOrSleep && o.stop {
					applyOp(s, o)
					continue
				}
				p.Sleep(o.d)
			case opPark:
				p.Park()
			case opYield:
				p.Yield()
			default:
				applyOp(s, o)
				continue
			}
			s.record(-1 - j)
		}
	})
	p.OnBlocked = func(_ int, d Time) { s.blocked[j] += d }
	s.procs = append(s.procs, p)
}

// refItem is one pending event of the reference queue.
type refItem struct {
	at, schedAt      Time
	ord, ordSeq, seq uint64
	proc             bool // a process resume; id is then the process index
	id               int
}

func (a refItem) less(b refItem) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.schedAt != b.schedAt {
		return a.schedAt < b.schedAt
	}
	if a.ord != b.ord {
		return a.ord < b.ord
	}
	if a.ordSeq != b.ordSeq {
		return a.ordSeq < b.ordSeq
	}
	return a.seq < b.seq
}

// refProc is a reference process: where its script stands is implicit in
// the shared operation stream, so only its blocking state is kept.
type refProc struct {
	done       bool
	accounting bool // blocked in Sleep or Park (Yield is not accounted)
	since      Time
}

// refOrder is the reference: a sorted slice, one linear model of the
// documented key, with none of the engine's fast paths.
type refOrder struct {
	opStream
	t         Time
	seq       uint64
	q         []refItem
	stopped   bool
	events    uint64
	log       []logEntry
	procs     []refProc
	blocked   []Time
	timers    [4]uint64 // seq of each slot's timer event, 0 for none
	condCalls int
}

func (r *refOrder) now() Time { return r.t }

func (r *refOrder) record(id int) { r.log = append(r.log, logEntry{r.t, id, r.events}) }

func (r *refOrder) push(it refItem) uint64 {
	if it.at < r.t {
		panic("reference: scheduling in the past")
	}
	r.seq++
	it.seq = r.seq
	i := sort.Search(len(r.q), func(i int) bool { return it.less(r.q[i]) })
	r.q = append(r.q, refItem{})
	copy(r.q[i+1:], r.q[i:])
	r.q[i] = it
	return it.seq
}

func (r *refOrder) schedule(kind int, t, schedAt Time, src int, pseq uint64) {
	it := refItem{at: t, schedAt: schedAt, id: r.ids}
	if kind == opPosted || kind == opStamped {
		it.ord, it.ordSeq = uint64(src)+1, pseq
	}
	r.ids++
	r.push(it)
}

func (r *refOrder) armTimer(slot int, t Time) {
	r.timers[slot] = r.push(refItem{at: t, schedAt: r.t, id: r.ids})
	r.ids++
}

func (r *refOrder) stopTimer(slot int) bool {
	for i, it := range r.q {
		if !it.proc && it.seq == r.timers[slot] {
			r.q = append(r.q[:i], r.q[i+1:]...)
			return true
		}
	}
	return false
}

func (r *refOrder) resumeAt(j int, t Time) {
	r.push(refItem{at: t, schedAt: r.t, proc: true, id: j})
}

func (r *refOrder) unpark(j int) {
	if j < len(r.procs) && !r.procs[j].done {
		r.resumeAt(j, r.t)
	}
}

func (r *refOrder) stop() { r.stopped = true }

func (r *refOrder) spawn() {
	if len(r.procs) == maxFuzzProcs {
		return
	}
	r.procs = append(r.procs, refProc{})
	r.blocked = append(r.blocked, 0)
	r.resumeAt(len(r.procs)-1, r.t)
}

// pop executes the earliest pending event.
func (r *refOrder) pop() {
	it := r.q[0]
	r.q = r.q[1:]
	r.t = it.at
	r.events++
	if !it.proc {
		r.record(it.id)
		if o, ok := r.next(); ok {
			applyOp(r, o)
		}
		return
	}
	j := it.id
	if r.procs[j].done {
		return
	}
	if p := &r.procs[j]; p.accounting {
		if d := r.t - p.since; d > 0 {
			r.blocked[j] += d
		}
		p.accounting = false
	}
	r.record(-1 - j)
	for {
		o, ok := r.next()
		if !ok {
			r.procs[j].done = true
			return
		}
		if !blocks(o) {
			applyOp(r, o) // may spawn, growing r.procs
			if o.kind == opSleep {
				r.record(-1 - j) // Sleep(0) returns at once
			}
			continue
		}
		switch o.kind {
		case opSleep, opStopOrSleep:
			r.procs[j] = refProc{accounting: true, since: r.t}
			r.resumeAt(j, r.t+o.d)
		case opPark:
			r.procs[j] = refProc{accounting: true, since: r.t}
		case opYield:
			r.resumeAt(j, r.t)
		}
		return
	}
}

func (r *refOrder) nextAt() (Time, bool) {
	if len(r.q) == 0 {
		return 0, false
	}
	return r.q[0].at, true
}

func (r *refOrder) drive(c driverCall, cond func() bool) {
	switch c.kind {
	case drvRun:
		for !r.stopped && len(r.q) > 0 {
			r.pop()
		}
	case drvRunWhile:
		for !r.stopped && cond() && len(r.q) > 0 {
			r.pop()
		}
	case drvRunUntil, drvRunWindow:
		end := r.t + Time(c.param%16)*Nanosecond
		for !r.stopped && len(r.q) > 0 && (r.q[0].at < end || c.kind == drvRunUntil && r.q[0].at == end) {
			r.pop()
		}
		if !r.stopped && r.t < end {
			r.t = end
		}
	case drvSteps:
		for i := 0; i <= c.param%8 && !r.stopped && len(r.q) > 0; i++ {
			r.pop()
		}
	}
}

func (s *realOrder) drive(c driverCall, cond func() bool) {
	switch c.kind {
	case drvRun:
		s.e.Run()
	case drvRunWhile:
		s.e.RunWhile(cond)
	case drvRunUntil:
		s.e.RunUntil(s.e.Now() + Time(c.param%16)*Nanosecond)
	case drvRunWindow:
		s.e.RunWindow(s.e.Now() + Time(c.param%16)*Nanosecond)
	case drvSteps:
		for i := 0; i <= c.param%8; i++ {
			s.e.Step()
		}
	}
}

// checkEngineOrder runs one decoded input on both sides and reports the
// first difference.
func checkEngineOrder(data []byte) error {
	plan, ops := decodePlan(data)
	eng := &realOrder{opStream: opStream{ops: ops}, e: NewEngine()}
	defer eng.e.Drain()
	ref := &refOrder{opStream: opStream{ops: ops}}
	eng.spawn()
	ref.spawn()
	for step, c := range plan {
		limitR, limitF := len(eng.log)+c.param%32, len(ref.log)+c.param%32
		eng.drive(c, func() bool { eng.condCalls++; return len(eng.log) < limitR })
		ref.drive(c, func() bool { ref.condCalls++; return len(ref.log) < limitF })
		if err := compareOrder(eng, ref); err != nil {
			return fmt.Errorf("after driver call %d %+v: %v", step, c, err)
		}
	}
	return nil
}

func compareOrder(eng *realOrder, ref *refOrder) error {
	n := len(eng.log)
	if len(ref.log) < n {
		n = len(ref.log)
	}
	for i := 0; i < n; i++ {
		if eng.log[i] != ref.log[i] {
			return fmt.Errorf("log entry %d: engine %+v, reference %+v", i, eng.log[i], ref.log[i])
		}
	}
	if len(eng.log) != len(ref.log) {
		return fmt.Errorf("log length: engine %d, reference %d", len(eng.log), len(ref.log))
	}
	if eng.e.Events() != ref.events || eng.e.Now() != ref.t || eng.e.Pending() != len(ref.q) {
		return fmt.Errorf("engine (events %d, now %v, pending %d), reference (%d, %v, %d)",
			eng.e.Events(), eng.e.Now(), eng.e.Pending(), ref.events, ref.t, len(ref.q))
	}
	at, ok := eng.e.NextEventAt()
	rat, rok := ref.nextAt()
	if at != rat || ok != rok {
		return fmt.Errorf("NextEventAt: engine (%v, %v), reference (%v, %v)", at, ok, rat, rok)
	}
	if eng.condCalls != ref.condCalls {
		return fmt.Errorf("RunWhile condition evaluated %d times, reference %d", eng.condCalls, ref.condCalls)
	}
	for j := range eng.blocked {
		if eng.blocked[j] != ref.blocked[j] {
			return fmt.Errorf("process %d blocked %v, reference %v", j, eng.blocked[j], ref.blocked[j])
		}
	}
	return nil
}
