package main

import (
	"fmt"

	"nisim/internal/chaos"
	"nisim/internal/machine"
	"nisim/internal/macro"
	"nisim/internal/netsim"
	"nisim/internal/nic"
	"nisim/internal/sim"
	"nisim/internal/workload"
)

// cell is one simulation of a workload: the machine to build and the
// program to run on it. The benchmark builds cells itself instead of
// calling the macro and chaos sweep jobs, because a job closure hides the
// machine whose engines and counters the benchmark reads; the drift tests
// pin that both builds produce the same statistics.
type cell struct {
	id  string
	cfg machine.Config
	// app and params describe a closed-loop macrobenchmark cell.
	app    workload.App
	params workload.Params
	// ol describes an open-loop cell; nil for closed-loop cells.
	ol *workload.OpenLoopParams
}

// program constructs the per-node program, plus the result an open-loop
// program fills.
func (c cell) program() (func(*machine.Node), *workload.OpenLoopResult) {
	if c.ol == nil {
		return workload.Program(c.app, c.params, c.cfg.Nodes), nil
	}
	res := new(workload.OpenLoopResult)
	return workload.OpenLoopProgram(*c.ol, res, c.cfg.Nodes), res
}

// Workload sizes. Each is chosen so that one pass over the workload's
// cells takes several seconds on a 2-CPU host, letting a run of the
// benchmark's run_seconds time more than one pass and report medians.
const (
	paper16Iters   = 0.1
	scale256Iters  = 0.05
	scale256Nodes  = 256
	scale256Shards = 2
	overload8Nodes = 8
	overload8Reqs  = 60
)

// The chaos grid's watchdog interval and client drain grace.
const (
	chaosStallHorizon = 200 * sim.Microsecond
	chaosDrainGrace   = 80 * sim.Microsecond
)

// workloadDef is one named benchmark workload. Only overload8's cells
// depend on the seed; paper16 and scale256 are the paper's fixed grids.
//
// procs is the GOMAXPROCS the workload runs under: one per engine shard.
// A serial engine hands control between simulated processes on one
// goroutine at a time, so a second P only adds cross-thread wake-ups:
// about 130,000 context switches and 65,000 page faults per paper16 pass.
// Only single-P workloads report their times at the nominal host speed
// (see reference): the single-threaded reference slices follow their
// cells' drift, but not that of scale256's two spinning shards.
type workloadDef struct {
	name  string
	procs int
	cells func(seed uint64) []cell
}

var workloads = []workloadDef{
	{name: "paper16", procs: 1, cells: func(uint64) []cell {
		return paperCells(workload.Params{Iters: paper16Iters})
	}},
	{name: "scale256", procs: scale256Shards, cells: func(uint64) []cell {
		return scaleCells(scale256Nodes, scale256Shards, workload.Params{Iters: scale256Iters})
	}},
	{name: "overload8", procs: 1, cells: func(seed uint64) []cell {
		return overloadCells(overload8Nodes, overload8Reqs, seed)
	}},
}

func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (want paper16, scale256 or overload8)", name)
}

// macroCell is one (NI, buffers, application) cell on the paper's 16-node
// machine, with the ID macro.ExecJob gives it.
func macroCell(experiment string, kind nic.Kind, bufs int, app workload.App, p workload.Params) cell {
	return cell{
		id:     fmt.Sprintf("%s/%s/bufs=%s/%s", experiment, kind.ShortName(), macro.BufName(bufs), app),
		cfg:    machine.DefaultConfig(kind, bufs),
		app:    app,
		params: p,
	}
}

// paperCells is the 16-node grid of Figures 1, 3a, 3b and 4, in the job
// order of macro.Figure1Jobs and the NormGrid Jobs: 14 + 91 + 35 + 35 cells.
func paperCells(p workload.Params) []cell {
	var cells []cell
	for _, app := range workload.Apps() {
		cells = append(cells,
			macroCell("fig1", nic.CM5, 1, app, p),
			macroCell("fig1", nic.CM5, netsim.Infinite, app, p))
	}
	for _, g := range []macro.NormGrid{macro.Fig3aGrid(p), macro.Fig3bGrid(p), macro.Fig4Grid(p)} {
		for _, app := range g.Apps {
			cells = append(cells, macroCell(g.Name+"/base", g.BaseKind, g.BaseBufs, app, p))
			for _, k := range g.Kinds {
				for _, b := range g.Bufs {
					cells = append(cells, macroCell(g.Name, k, b, app, p))
				}
			}
		}
	}
	return cells
}

// scaleCells is the Figure 1 pairs of macro.ScaleFigure1Jobs for barnes
// and dsmc at one machine size, on the partitioned engine.
func scaleCells(nodes, shards int, p workload.Params) []cell {
	var cells []cell
	for _, app := range []workload.App{workload.Barnes, workload.Dsmc} {
		for _, bufs := range []int{1, netsim.Infinite} {
			cfg := machine.DefaultConfig(nic.CM5, bufs)
			cfg.Nodes = nodes
			cfg.Shards = shards
			cells = append(cells, cell{
				id: fmt.Sprintf("scalefig1/%s/nodes=%d/bufs=%s/%s",
					nic.CM5.ShortName(), nodes, macro.BufName(bufs), app),
				cfg: cfg, app: app, params: p,
			})
		}
	}
	return cells
}

// overloadCells is the chaos StandardGrid(false) followed by
// ProtocolGrid(false) at the given size, with seed feeding the grid seed
// and every mix's fault seed.
func overloadCells(nodes, requests int, seed uint64) []cell {
	var cells []cell
	for _, g := range []chaos.GridSpec{chaos.StandardGrid(false), chaos.ProtocolGrid(false)} {
		g.Nodes, g.Requests, g.Seed = nodes, requests, seed
		for _, s := range g.Specs {
			for _, ld := range g.Loads {
				for _, mx := range g.Mixes {
					mx.Faults.Seed = seed
					ol := chaosParams(g, ld, mx)
					cells = append(cells, cell{
						id:  fmt.Sprintf("chaos/%s/%s/%s", s.Name(), ld.Name, mx.Name),
						cfg: chaosConfig(g, s, mx),
						ol:  &ol,
					})
				}
			}
		}
	}
	return cells
}

// chaosConfig mirrors chaos.GridSpec's unexported config: the spec with
// the mix's overload policy, faults, reliability and protocol, and the
// starvation watchdog armed.
func chaosConfig(g chaos.GridSpec, s nic.Spec, mx chaos.Mix) machine.Config {
	spec := s
	spec.Overload = mx.Overload
	cfg := machine.DefaultConfig(nic.KindOf(s), 8)
	cfg.Nodes = g.Nodes
	cfg.NISpec = &spec
	cfg.Faults = mx.Faults
	cfg.Net.Reliability = mx.Reliability
	cfg.Msg.Protocol = mx.Protocol
	if mx.RdvThreshold > 0 {
		cfg.Msg.RendezvousThreshold = mx.RdvThreshold
	}
	cfg.Watchdog = true
	cfg.StallHorizon = chaosStallHorizon
	cfg.Shards = g.Shards
	return cfg
}

// chaosParams mirrors chaos.GridSpec's unexported params.
func chaosParams(g chaos.GridSpec, ld chaos.Load, mx chaos.Mix) workload.OpenLoopParams {
	return workload.OpenLoopParams{
		MeanGap:    ld.Gap,
		Requests:   g.Requests,
		ReqBytes:   g.ReqBytes,
		RespBytes:  g.RespBytes,
		Seed:       g.Seed,
		DrainGrace: chaosDrainGrace,
		OutageEnd:  mx.OutageEnd,
	}
}
