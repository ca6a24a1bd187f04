package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"nisim/internal/machine"
	"nisim/internal/stats"
	"nisim/internal/workload"
)

// cellRun is what one cell's execution leaves for the pass that ran it.
type cellRun struct {
	id string
	// err is the first line of the cell's panic or failed check;
	// empty when the cell passed.
	err    string
	wall   time.Duration // whole cell
	newD   time.Duration // machine.New
	progD  time.Duration // workload.Program / OpenLoopProgram
	runD   time.Duration // (*Machine).Run
	runCPU time.Duration // process CPU inside Run
	st     *stats.Machine
	ol     *workload.OpenLoopResult
	events []uint64 // per-shard engine events
	digest [sha256.Size]byte
}

// setup is the cell's set-up time: machine construction plus program
// construction.
func (r cellRun) setup() time.Duration { return r.newD + r.progD }

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's maximum resident set in MB (10^6 bytes).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// execCell builds, runs and checks one cell, recording a span around each
// public call into the simulator. A panic (including the machine's stall
// and starvation verdicts) or a failed check marks the cell failed.
func execCell(c cell, tr *tracer) (r cellRun) {
	r.id = c.id
	running.Store(&c.id)
	root := tr.newID()
	t0 := now()
	defer func() {
		if p := recover(); p != nil {
			r.err = firstLine(fmt.Sprint(p))
			r.digest = cellDigest(r)
		}
		r.wall = now().Sub(t0)
		tr.record(c.id, root, 0, "cell", t0, t0.Add(r.wall))
	}()

	t := now()
	m := machine.New(c.cfg)
	r.newD = tr.span(c.id, root, "machine.New", t)

	t = now()
	prog, res := c.program()
	name := "workload.Program"
	if c.ol != nil {
		name = "workload.OpenLoopProgram"
	}
	r.progD = tr.span(c.id, root, name, t)

	st := func() *stats.Machine {
		cpu0, t := cpuTime(), now()
		defer func() { // also on a stall panic, so the span covers the failed run
			r.runD = tr.span(c.id, root, "machine.Run", t)
			r.runCPU = cpuTime() - cpu0
		}()
		return m.Run(prog)
	}()

	t = now()
	r.st, r.ol = st, res
	for _, e := range m.Engines {
		r.events = append(r.events, e.Events())
	}
	if err := checkCell(st, res); err != nil {
		r.err = err.Error()
	}
	r.digest = cellDigest(r)
	tr.span(c.id, root, "check", t)
	return r
}

// checkCell verifies the output invariants: on a closed-loop (lossless)
// cell every message and fragment sent is received and no node is busy
// longer than the run; on an open-loop cell no more requests complete than
// were issued.
func checkCell(st *stats.Machine, res *workload.OpenLoopResult) error {
	if res != nil {
		if res.Completed > res.Issued {
			return fmt.Errorf("check: %d requests completed of %d issued", res.Completed, res.Issued)
		}
		return nil
	}
	t := st.Total()
	if t.MessagesSent != t.MessagesReceived {
		return fmt.Errorf("check: %d messages sent, %d received", t.MessagesSent, t.MessagesReceived)
	}
	if t.FragmentsSent != t.FragmentsReceived {
		return fmt.Errorf("check: %d fragments sent, %d received", t.FragmentsSent, t.FragmentsReceived)
	}
	for i, n := range st.Nodes {
		if n.BusyTime() > st.ExecTime {
			return fmt.Errorf("check: node %d busy %v in a %v run", i, n.BusyTime(), st.ExecTime)
		}
	}
	return nil
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// execTime is one timed execution of a cell. Its wall and CPU time include
// the garbage collection run just before the cell.
type execTime struct {
	wall, cpu, setup time.Duration
}

// timeCell collects garbage, so every cell starts from the same small heap
// rather than from the previous cell's garbage, then executes the cell,
// and times the two together. Between them, outside the time, it runs the
// reference slices when ref is not nil: after the collection, so that no
// collection of the simulator's garbage runs beside the slices.
func timeCell(c cell, tr *tracer, ref *reference) (cellRun, execTime) {
	cpu0, t0 := cpuTime(), now()
	runtime.GC()
	gcCPU, gcWall := cpuTime()-cpu0, now().Sub(t0)
	if ref != nil {
		ref.run()
	}
	cpu1, t1 := cpuTime(), now()
	r := execCell(c, tr)
	s := execTime{wall: gcWall + now().Sub(t1), cpu: gcCPU + cpuTime() - cpu1, setup: r.setup()}
	if ref != nil {
		ref.owed = s.wall
	}
	return r, s
}

// setupOnly builds a cell's machine and program, timing that as
// execCell does, then runs a no-op program on the machine, untimed, so the
// machine tears down as after any run.
func setupOnly(c cell) time.Duration {
	runtime.GC()
	t := now()
	m := machine.New(c.cfg)
	c.program()
	d := now().Sub(t)
	m.Run(func(*machine.Node) {})
	return d
}

// pass is one execution of every cell of a workload, in order.
type pass struct {
	wall      time.Duration
	samples   []execTime          // per cell, in order
	digests   [][sha256.Size]byte // per cell, in order
	attempted int
	failures  []string // "id: reason" per failed cell
	digest    string
	counts    counts
	runs      []cellRun // completed cells, kept only for the traced pass
}

// runPass executes every cell once, in order, with the reference slices
// before each when ref is not nil.
func runPass(cells []cell, tr *tracer, ref *reference, keep bool) pass {
	var p pass
	h := sha256.New()
	t0 := now()
	for _, c := range cells {
		r, s := timeCell(c, tr, ref)
		p.attempted++
		p.samples = append(p.samples, s)
		p.digests = append(p.digests, r.digest)
		h.Write(r.digest[:])
		if r.err != "" {
			p.failures = append(p.failures, c.id+": "+r.err)
			continue
		}
		p.counts.add(r)
		if keep {
			p.runs = append(p.runs, r)
		}
	}
	p.wall = now().Sub(t0)
	p.digest = hex.EncodeToString(h.Sum(nil))[:16]
	return p
}

// cellDigest hashes one cell's simulated results: the machine metric map,
// the open-loop service result, or the failure. A pass's digest hashes its
// cells' digests in order.
func cellDigest(r cellRun) [sha256.Size]byte {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n", r.id)
	if r.err != "" {
		fmt.Fprintf(h, "err %s\n", r.err)
		return [sha256.Size]byte(h.Sum(nil))
	}
	m := r.st.Metrics()
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s\n", k, strconv.FormatFloat(m[k], 'g', -1, 64))
	}
	if o := r.ol; o != nil {
		fmt.Fprintf(h, "ol %d %d %s %s %d %d %d %d\n", o.Issued, o.Completed,
			strconv.FormatFloat(o.OfferedRPS, 'g', -1, 64), strconv.FormatFloat(o.GoodputMBps, 'g', -1, 64),
			o.P50(), o.P99(), o.Elapsed, o.Recovery)
	}
	return [sha256.Size]byte(h.Sum(nil))
}
