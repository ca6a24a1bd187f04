// Command perfbench is nisim's benchmark. It runs one workload — paper16,
// scale256 or overload8 (see README.md) — for a fixed time, checks the
// simulated outputs, and prints one JSON result line: the end-to-end
// host-side metrics with -trace 0, the per-layer metrics with -trace 1.
//
//	perfbench -workload paper16 -seed 1 -seconds 30 -trace 0
//	perfbench compare <parent-runs-dir> <change-runs-dir>
//
// The line before the result is a JSON "detail" object carrying the
// workload digest and the deterministic counters, which compare mode
// checks for exact equality.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"time"
)

// hardStop bounds a run that a hung cell would otherwise never end.
const hardStop = 170 * time.Second

// The end-to-end metrics (tracing off) and their units.
var endToEnd = []struct{ name, unit string }{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"cell_ms_p50", "ms"},
	{"cell_ms_p90", "ms"},
	{"peak_rss_mb", "MB"},
	{"cells_ok_frac", "ratio"},
}

// The per-layer metrics (traced run) and their units. Layers are nisim's
// packages; README.md gives the end-to-end metric each should move.
var perLayer = []struct{ name, unit string }{
	{"sim.events", "count"}, {"sim.ns_per_event", "ns"}, {"sim.self_s", "s"},
	{"runtime.sched_self_s", "s"}, {"runtime.sched_switches", "count"},
	{"runtime.gc_self_s", "s"}, {"runtime.gc_cycles", "count"}, {"runtime.alloc_mb", "MB"},
	{"partition.self_s", "s"}, {"partition.shard_imbalance", "ratio"}, {"partition.cpu_per_wall", "ratio"},
	{"machine.new_s", "s"}, {"machine.run_s", "s"}, {"machine.self_s", "s"},
	{"workload.program_s", "s"}, {"workload.self_s", "s"}, {"workload.completed_per_issued", "ratio"},
	{"workload.p99_us", "sim_us"}, {"workload.goodput_mbps", "MB/s"},
	{"proc.self_s", "s"}, {"proc.transfer_frac", "ratio"}, {"proc.buffering_frac", "ratio"},
	{"membus.transactions", "count"}, {"membus.cache_to_cache", "count"},
	{"membus.mem_to_cache", "count"}, {"membus.uncached", "count"}, {"membus.self_s", "s"},
	{"cache.self_s", "s"}, {"mainmem.self_s", "s"},
	{"nic.cache_hits", "count"}, {"nic.cache_misses", "count"}, {"nic.bypasses", "count"},
	{"nic.prefetches", "count"}, {"nic.admit_drops", "count"}, {"nic.admit_bounces", "count"},
	{"nic.admit_evictions", "count"}, {"nic.self_s", "s"},
	{"netsim.fragments", "count"}, {"netsim.bounces", "count"}, {"netsim.retries", "count"},
	{"netsim.retransmits", "count"}, {"netsim.fault_drops", "count"},
	{"netsim.delivery_failures", "count"}, {"netsim.delivered_per_attempt", "ratio"}, {"netsim.self_s", "s"},
	{"msglayer.messages", "count"}, {"msglayer.bytes", "bytes"}, {"msglayer.dup_suppressed", "count"},
	{"msglayer.send_blocked", "count"}, {"msglayer.self_s", "s"},
	{"shmem.self_s", "s"}, {"stats.self_s", "s"},
	{"other.self_s", "s"}, {"bench.cell_self_s", "s"}, {"trace.overhead_s", "s"},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper16, scale256 or overload8")
	seed := fs.Uint64("seed", 1, "workload seed (overload8's arrival and fault seed)")
	seconds := fs.Int("seconds", 30, "how long to measure, in seconds")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for the traced run's span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: need -workload paper16|scale256|overload8, -seconds >= 1, -trace 0|1")
		return 2
	}
	armHardStop(hardStop)
	runtime.GOMAXPROCS(w.procs)
	cells := w.cells(*seed)
	budget := time.Duration(*seconds) * time.Second
	var res result
	if *traceFlag == 0 {
		var ref *reference
		if w.procs == 1 {
			ref = newReference()
		}
		res = timedRun(cells, budget, ref)
	} else {
		res, err = tracedRun(cells, budget, spanFile(*out, w.name, *seed))
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	res.Detail.Workload, res.Detail.Seed, res.Detail.Trace = w.name, *seed, *traceFlag
	if err := checkNames(res.Metrics); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]detail{"detail": res.Detail}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(res.line()); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// result is one run's outcome.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]metric
	Detail    detail
}

// line is the result line: exactly correct, attempted, failed and metrics.
func (r result) line() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics}
}

// detail is what the run checked: the digest of the simulated results,
// the failed cells, and the deterministic counters.
type detail struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	// FirstPassWall is the wall time of the run's first pass over every
	// cell; Executions counts the timed cell executions, first pass
	// included.
	FirstPassWall float64            `json:"first_pass_wall_s"`
	Executions    int                `json:"cell_executions"`
	Digest        string             `json:"digest"`
	Failures      []string           `json:"failed_cells"`
	Problems      []string           `json:"problems,omitempty"`
	Counts        map[string]float64 `json:"counts"`
	// Measured holds the time metrics as measured; the reported ones are
	// these times HostFactor, the nominal reference slice time over the
	// mean of the RefSlices slices timed in the run.
	Measured   map[string]float64 `json:"measured,omitempty"`
	HostFactor float64            `json:"host_factor,omitempty"`
	RefSlices  int                `json:"ref_slices,omitempty"`
	// CellSamples is the number of per-cell times behind the cell
	// percentiles; P90IsTail whether enough of them lie above cell_ms_p90
	// for it to be read as a tail.
	CellSamples int  `json:"cell_samples"`
	P90IsTail   bool `json:"p90_is_tail"`
}

// timing holds every timed execution of each cell in a run, indexed like
// the workload's cells, the extra set-up times of cells executed fewer
// than setupSamples times, and the reference slices timed between them.
type timing struct {
	execs  [][]execTime
	setups [][]time.Duration
	ref    *reference
}

// setupSamples is the least number of set-up times behind each cell's
// median set-up time. Cells the budget re-timed fewer times are set up
// (and torn down) again without running.
const setupSamples = 5

// measure executes a first full pass, then re-times the cells in workload
// order, wrapping around, skipping each cell whose previous time the
// budget no longer holds (plus room first-pass lengths after it), until
// none fits. Re-timing cell by cell rather than pass by pass spends nearly
// the whole budget measuring. Every re-timed cell must reproduce its first
// digest; problems lists those that do not. The reference slices run
// before every execution when ref is not nil.
func measure(cells []cell, budget time.Duration, room int, ref *reference) (first pass, t timing, problems []string) {
	start := now()
	t.ref = ref
	first = runPass(cells, nil, t.ref, false)
	t.execs = make([][]execTime, len(cells))
	for i, s := range first.samples {
		t.execs[i] = []execTime{s}
	}
	reserve := time.Duration(room) * first.wall
	// skipped counts the cells passed over since the last execution; time
	// only runs on, so once every cell is passed over in a row none fits.
	for i, skipped := 0, 0; skipped < len(cells); i = (i + 1) % len(cells) {
		last := t.execs[i][len(t.execs[i])-1].wall
		if now().Sub(start)+last+reserve > budget {
			skipped++
			continue
		}
		skipped = 0
		r, s := timeCell(cells[i], nil, t.ref)
		t.execs[i] = append(t.execs[i], s)
		if r.digest != first.digests[i] {
			problems = append(problems, "cell "+cells[i].id+": simulated results differ from its first execution")
		}
	}
	t.setups = make([][]time.Duration, len(cells))
	for i, ss := range t.execs {
		for k := len(ss); k < setupSamples; k++ {
			t.setups[i] = append(t.setups[i], setupOnly(cells[i]))
		}
	}
	return first, t, problems
}

// medians returns each cell's median, in seconds, of one time of its
// samples.
func (t timing) medians(of func(execTime) time.Duration) []float64 {
	m := make([]float64, len(t.execs))
	for i, ss := range t.execs {
		xs := make([]float64, len(ss))
		for j, s := range ss {
			xs[j] = of(s).Seconds()
		}
		m[i] = median(xs)
	}
	return m
}

// setupMedians returns each cell's median set-up time, in seconds, over
// its executions and its extra set-ups.
func (t timing) setupMedians() []float64 {
	m := make([]float64, len(t.execs))
	for i, ss := range t.execs {
		var xs []float64
		for _, s := range ss {
			xs = append(xs, s.setup.Seconds())
		}
		for _, d := range t.setups[i] {
			xs = append(xs, d.Seconds())
		}
		m[i] = median(xs)
	}
	return m
}

func (t timing) executions() (n int) {
	for _, ss := range t.execs {
		n += len(ss)
	}
	return n
}

func wallOf(s execTime) time.Duration { return s.wall }
func cpuOf(s execTime) time.Duration  { return s.cpu }

func sum(xs []float64) (s float64) {
	for _, x := range xs {
		s += x
	}
	return s
}

// summarize fills the result fields every run shares from a full pass:
// attempts, failed cells, the digest and counts, and correctness — no
// failed check and no problem found while re-timing.
//
// An operation is one cell of the workload. Re-timed cells must reproduce
// their first results, failures included, so attempted and failed count
// each cell once: they depend on the seed alone, never on how many
// executions the time budget held.
func summarize(p pass, problems []string) result {
	r := result{
		Correct:   len(problems) == 0,
		Attempted: p.attempted,
		Failed:    len(p.failures),
		Metrics:   map[string]metric{},
	}
	r.Detail.Digest = p.digest
	r.Detail.Failures = append([]string{}, p.failures...)
	r.Detail.Counts = p.counts.metrics()
	r.Detail.Problems = problems
	for _, f := range p.failures {
		if isCheckFailure(f) {
			r.Correct = false
			r.Detail.Problems = append(r.Detail.Problems, "failed check: "+f)
		}
	}
	return r
}

func isCheckFailure(f string) bool { return strings.Contains(f, ": check: ") }

// timedRun measures the end-to-end metrics with tracing off. Each time
// metric is taken from the cells' medians over the run, so a
// whole-workload time is the time one pass over every cell takes. With a
// reference (see reference) the times are reported at the nominal host
// speed; the detail keeps them as measured.
func timedRun(cells []cell, budget time.Duration, ref *reference) result {
	first, t, problems := measure(cells, budget, 0, ref)
	r := summarize(first, problems)
	r.Detail.FirstPassWall = first.wall.Seconds()
	r.Detail.Executions = t.executions()
	walls := t.medians(wallOf)
	cellMS := make([]float64, len(walls))
	for i, w := range walls {
		cellMS[i] = w * 1000
	}
	r.Detail.CellSamples = len(cellMS)
	r.Detail.P90IsTail = isTail(len(cellMS), 0.90)
	r.Detail.Measured = map[string]float64{
		"wall_s":      sum(walls),
		"cpu_s":       sum(t.medians(cpuOf)),
		"setup_s":     sum(t.setupMedians()),
		"cell_ms_p50": percentile(cellMS, 0.50),
		"cell_ms_p90": percentile(cellMS, 0.90),
	}
	r.Detail.HostFactor = 1
	if ref != nil {
		r.Detail.HostFactor = ref.factor()
		r.Detail.RefSlices = ref.slices
	}
	vals := map[string]float64{
		"peak_rss_mb":   peakRSSMB(),
		"cells_ok_frac": 1 - ratio(float64(r.Failed), float64(r.Attempted)),
	}
	for name, v := range r.Detail.Measured {
		vals[name] = v * r.Detail.HostFactor
	}
	for _, m := range endToEnd {
		r.Metrics[m.name] = metric{vals[m.name], m.unit}
	}
	return r
}

// runtimeSample reads the Go runtime counters the traced run reports.
func runtimeSample() (switches, gcCycles, allocBytes float64) {
	s := []metrics.Sample{
		{Name: "/sched/latencies:seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64Histogram {
		for _, c := range s[0].Value.Float64Histogram().Counts {
			switches += float64(c)
		}
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		gcCycles = float64(s[1].Value.Uint64())
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		allocBytes = float64(s[2].Value.Uint64())
	}
	return
}

// tracedRun measures untraced cells for the overhead baseline, then one
// traced pass under a CPU profile with spans, and reports the per-layer
// metrics of the traced pass.
func tracedRun(cells []cell, budget time.Duration, spanPath string) (result, error) {
	first, t, problems := measure(cells, budget, 1, nil)
	untraced := sum(t.medians(wallOf))

	tr := newTracer()
	var prof bytes.Buffer
	sw0, gc0, alloc0 := runtimeSample()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, fmt.Errorf("cpu profile: %w", err)
	}
	tp := runPass(cells, tr, nil, true)
	pprof.StopCPUProfile()
	sw1, gc1, alloc1 := runtimeSample()
	for i, d := range tp.digests {
		if d != first.digests[i] {
			problems = append(problems, "cell "+cells[i].id+": traced results differ from untraced")
		}
	}
	r := summarize(tp, problems)
	if err := tr.write(spanPath); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	samples, err := decodeProfile(prof.Bytes())
	if err != nil {
		return result{}, err
	}

	vals := tp.counts.metrics()
	var runNS, runCPU float64
	for _, c := range tp.runs {
		runNS += float64(c.runD.Nanoseconds())
		runCPU += float64(c.runCPU.Nanoseconds())
	}
	vals["sim.ns_per_event"] = ratio(runNS, float64(tp.counts.events))
	vals["partition.cpu_per_wall"] = ratio(runCPU, runNS)
	tot := totals(tr.spans)
	vals["machine.new_s"] = tot["machine.New"]
	vals["machine.run_s"] = tot["machine.Run"]
	vals["workload.program_s"] = tot["workload.Program"] + tot["workload.OpenLoopProgram"]
	vals["bench.cell_self_s"] = selfTimes(tr.spans)["cell"]
	// Self time is each bucket's share of the profile samples taken inside
	// Run, applied to the process CPU time measured across the Run calls:
	// the sampler sets the shares, the rusage clock the seconds.
	for b, share := range selfShares(samples) {
		name := b + ".self_s"
		switch b {
		case bucketSched:
			name = "runtime.sched_self_s"
		case bucketGC:
			name = "runtime.gc_self_s"
		}
		if !hasMetric(perLayer, name) {
			name = "other.self_s" // packages with no per-layer entry, such as faults
		}
		vals[name] += share * runCPU / 1e9
	}
	vals["runtime.sched_switches"] = sw1 - sw0
	vals["runtime.gc_cycles"] = gc1 - gc0
	vals["runtime.alloc_mb"] = (alloc1 - alloc0) / 1e6
	vals["trace.overhead_s"] = tp.wall.Seconds() - untraced
	r.Metrics = map[string]metric{}
	for _, m := range perLayer {
		r.Metrics[m.name] = metric{vals[m.name], m.unit}
		delete(vals, m.name)
	}
	for name := range vals {
		return result{}, fmt.Errorf("metric %s has no per-layer entry", name)
	}
	return r, nil
}

func hasMetric(list []struct{ name, unit string }, name string) bool {
	for _, m := range list {
		if m.name == name {
			return true
		}
	}
	return false
}
