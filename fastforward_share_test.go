package nisim

import (
	"os"
	"testing"

	"nisim/internal/chaos"
	"nisim/internal/machine"
	"nisim/internal/macro"
	"nisim/internal/netsim"
	"nisim/internal/nic"
	"nisim/internal/workload"
)

// shareCell is one simulation of a fast-path share workload.
type shareCell struct {
	cfg  machine.Config
	prog func() func(*machine.Node)
}

// shareWorkloads rebuilds the benchmark workloads (perfbench's paper16,
// scale256 and overload8 at seed 1, same sizes) from the shared grid
// definitions.
func shareWorkloads() map[string][]shareCell {
	closed := func(cfg machine.Config, app workload.App, p workload.Params) shareCell {
		return shareCell{cfg, func() func(*machine.Node) { return workload.Program(app, p, cfg.Nodes) }}
	}
	w := map[string][]shareCell{}

	p16 := workload.Params{Iters: 0.1}
	for _, app := range workload.Apps() {
		w["paper16"] = append(w["paper16"],
			closed(machine.DefaultConfig(nic.CM5, 1), app, p16),
			closed(machine.DefaultConfig(nic.CM5, netsim.Infinite), app, p16))
	}
	for _, g := range []macro.NormGrid{macro.Fig3aGrid(p16), macro.Fig3bGrid(p16), macro.Fig4Grid(p16)} {
		for _, app := range g.Apps {
			w["paper16"] = append(w["paper16"], closed(machine.DefaultConfig(g.BaseKind, g.BaseBufs), app, p16))
			for _, k := range g.Kinds {
				for _, b := range g.Bufs {
					w["paper16"] = append(w["paper16"], closed(machine.DefaultConfig(k, b), app, p16))
				}
			}
		}
	}

	p256 := workload.Params{Iters: 0.05}
	for _, app := range []workload.App{workload.Barnes, workload.Dsmc} {
		for _, bufs := range []int{1, netsim.Infinite} {
			cfg := machine.DefaultConfig(nic.CM5, bufs)
			cfg.Nodes, cfg.Shards = 256, 2
			w["scale256"] = append(w["scale256"], closed(cfg, app, p256))
		}
	}

	for _, g := range []chaos.GridSpec{chaos.StandardGrid(false), chaos.ProtocolGrid(false)} {
		g.Nodes, g.Requests, g.Seed = 8, 60, 1
		for _, s := range g.Specs {
			for _, ld := range g.Loads {
				for _, mx := range g.Mixes {
					cfg, olp := g.Config(s, mx), g.Params(ld, mx)
					w["overload8"] = append(w["overload8"], shareCell{cfg, func() func(*machine.Node) {
						return workload.OpenLoopProgram(olp, new(workload.OpenLoopResult), cfg.Nodes)
					}})
				}
			}
		}
	}
	return w
}

// TestSleepFastForwardShare reports, per benchmark workload, how many of
// the executed events were Sleep wake-ups fast-forwarded past the event
// heap (sim.Engine.SleepFastForwards). It takes about 15 s, so it runs
// only when NISIM_FASTPATH_SHARE is set:
//
//	NISIM_FASTPATH_SHARE=1 go test -run SleepFastForwardShare -v .
//
// As in perfbench's sim.events, a cell that panics (overload8 has a few
// watchdog verdicts) counts no events.
func TestSleepFastForwardShare(t *testing.T) {
	if os.Getenv("NISIM_FASTPATH_SHARE") == "" {
		t.Skip("set NISIM_FASTPATH_SHARE=1 to measure the fast-path shares")
	}
	w := shareWorkloads()
	for _, name := range []string{"paper16", "scale256", "overload8"} {
		var events, ffwd uint64
		for _, c := range w[name] {
			m := machine.New(c.cfg)
			if !runRecovered(m, c.prog()) {
				continue
			}
			for _, e := range m.Engines {
				events += e.Events()
				ffwd += e.SleepFastForwards()
			}
		}
		if ffwd > events {
			t.Fatalf("%s: %d fast-forwards exceed %d events", name, ffwd, events)
		}
		t.Logf("%s: %d cells, %d events, %d Sleep fast-forwards (%.1f%%)",
			name, len(w[name]), events, ffwd, 100*float64(ffwd)/float64(events))
	}
}

// runRecovered runs prog on m and reports whether it finished without a
// panic.
func runRecovered(m *machine.Machine, prog func(*machine.Node)) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	m.Run(prog)
	return true
}
