package main

import (
	"reflect"
	"testing"

	"nisim/internal/chaos"
	"nisim/internal/macro"
	"nisim/internal/sim"
	"nisim/internal/stats"
	"nisim/internal/sweep"
	"nisim/internal/workload"
)

// The benchmark copies cell construction from macro and chaos (the chaos
// grid's config and params are unexported, and macro's jobs wrap their
// machines). These tests pin that its cells keep the jobs' IDs, in the
// jobs' order, and produce the same statistics on a sample of cells.

// sameCells checks IDs and order, then runs the sampled cells both ways.
func sameCells(t *testing.T, cells []cell, jobs []sweep.Job, sample []int, metrics func(cellRun) map[string]float64) {
	t.Helper()
	if len(cells) != len(jobs) {
		t.Fatalf("%d cells, %d jobs", len(cells), len(jobs))
	}
	for i := range cells {
		if cells[i].id != jobs[i].ID {
			t.Fatalf("cell %d is %s, job is %s", i, cells[i].id, jobs[i].ID)
		}
	}
	for _, i := range sample {
		r := execCell(cells[i], nil)
		if r.err != "" {
			t.Fatalf("%s: %s", r.id, r.err)
		}
		want := jobs[i].Run().Metrics
		if got := metrics(r); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: benchmark build gives\n%v\njob gives\n%v", r.id, got, want)
		}
	}
}

func machineMetrics(r cellRun) map[string]float64 { return r.st.Metrics() }

func TestPaperCellsMatchMacroJobs(t *testing.T) {
	p := workload.Params{Iters: paper16Iters}
	jobs := macro.Figure1Jobs(p)
	for _, g := range []macro.NormGrid{macro.Fig3aGrid(p), macro.Fig3bGrid(p), macro.Fig4Grid(p)} {
		jobs = append(jobs, g.Jobs()...)
	}
	if n := len(paperCells(p)); n != 175 {
		t.Errorf("paper16 has %d cells, want 175", n)
	}
	// fig1 cm5/1, fig3a's ap3000 base, a fig3b coherent NI, a fig4 cell.
	sameCells(t, paperCells(p), jobs, []int{0, 14, 110, 170}, machineMetrics)
}

func TestScaleCellsMatchMacroJobs(t *testing.T) {
	// scaleCells at a test-sized 32 nodes.
	p := workload.Params{Iters: scale256Iters}
	var jobs []sweep.Job
	for _, j := range macro.ScaleFigure1Jobs([]int{32}, scale256Shards, p) {
		if app := j.Config["app"]; app == string(workload.Barnes) || app == string(workload.Dsmc) {
			jobs = append(jobs, j)
		}
	}
	sameCells(t, scaleCells(32, scale256Shards, p), jobs, []int{0, 3}, machineMetrics)
}

// chaosOutcome is the metric map chaos jobs report for one open-loop cell.
func chaosOutcome(r cellRun) map[string]float64 {
	res, tot := r.ol, r.st.Total()
	m := map[string]float64{
		"offered_rps":       res.OfferedRPS,
		"issued":            float64(res.Issued),
		"completed":         float64(res.Completed),
		"goodput_mbps":      res.GoodputMBps,
		"p50_us":            res.P50().Microseconds(),
		"p99_us":            res.P99().Microseconds(),
		"bounces":           float64(tot.Bounces),
		"admit_drops":       float64(tot.AdmitDrops),
		"admit_bounces":     float64(tot.AdmitBounces),
		"admit_evictions":   float64(tot.AdmitEvictions),
		"delivery_failures": float64(tot.DeliveryFailures),
	}
	if res.Recovery >= 0 {
		m["recovery_us"] = res.Recovery.Microseconds()
	}
	return m
}

func TestOverloadCellsMatchChaosJobs(t *testing.T) {
	// A test-sized grid under a seed other than the grids' default, so the
	// seed plumbing into the arrival schedule and every fault mix is pinned.
	const nodes, requests, seed = 4, 12, 7
	var jobs []sweep.Job
	for _, g := range []chaos.GridSpec{chaos.StandardGrid(false), chaos.ProtocolGrid(false)} {
		g.Nodes, g.Requests, g.Seed = nodes, requests, seed
		g.Mixes = append([]chaos.Mix(nil), g.Mixes...)
		for i := range g.Mixes {
			g.Mixes[i].Faults.Seed = seed
		}
		jobs = append(jobs, g.Jobs()...)
	}
	cells := overloadCells(nodes, requests, seed)
	if n := len(overloadCells(overload8Nodes, overload8Reqs, 1)); n != 114 {
		t.Errorf("overload8 has %d cells, want 114", n)
	}
	// The first spec's mid-load cell under each mix, then the protocol
	// grid's mid-load eager and rendezvous cells.
	sameCells(t, cells, jobs, []int{4, 5, 6, 7, 110, 111}, chaosOutcome)
}

// TestOverloadSeedChangesTheCells checks that the seed reaches the cells.
func TestOverloadSeedChangesTheCells(t *testing.T) {
	a, b := overloadCells(overload8Nodes, overload8Reqs, 1), overloadCells(overload8Nodes, overload8Reqs, 2)
	lossy := 1 // the first spec's low-load lossy cell
	if a[lossy].ol.Seed != 1 || b[lossy].ol.Seed != 2 || b[lossy].cfg.Faults.Seed != 2 {
		t.Errorf("seed not plumbed: %+v / %+v", a[lossy].ol, b[lossy].cfg.Faults)
	}
	if a[lossy].cfg.StallHorizon != 200*sim.Microsecond {
		t.Errorf("stall horizon %v", a[lossy].cfg.StallHorizon)
	}
}

// TestCheckCellCatchesViolations feeds the output checks broken results.
func TestCheckCellCatchesViolations(t *testing.T) {
	st := stats.NewMachine(2)
	st.ExecTime = 10
	st.Nodes[0].MessagesSent = 1
	if checkCell(st, nil) == nil {
		t.Error("lost message not caught")
	}
	st.Nodes[1].MessagesReceived = 1
	st.Nodes[1].TimeIn[stats.Compute] = 11
	if checkCell(st, nil) == nil {
		t.Error("node busy past the run not caught")
	}
	st.Nodes[1].TimeIn[stats.Compute] = 10
	if err := checkCell(st, nil); err != nil {
		t.Error(err)
	}
	if checkCell(st, &workload.OpenLoopResult{Issued: 3, Completed: 4}) == nil {
		t.Error("completed > issued not caught")
	}
}
