package machine

import (
	"fmt"
	"strings"
	"testing"

	"nisim/internal/nic"
	"nisim/internal/sim"
	"nisim/internal/sweep"
)

// smallMachine builds a nodes-node CM-5 machine on shards engine shards.
func smallMachine(nodes, shards int) *Machine {
	cfg := DefaultConfig(nic.CM5, 8)
	cfg.Nodes = nodes
	cfg.Shards = shards
	return New(cfg)
}

// failingProgram panics on the last node after a microsecond of simulated
// time, while every other node waits for it in a barrier.
func failingProgram(n *Node) {
	if n.ID == n.Size()-1 {
		n.Proc.P.Sleep(sim.Microsecond)
		panic(fmt.Sprintf("node %d failed", n.ID))
	}
	n.Barrier()
}

// TestProgramPanicSurfacesFromRun: a panic in one node's program surfaces
// from Machine.Run on the caller's goroutine, on the serial engine and, on
// a partitioned machine, re-raised through the window barrier from the
// shard that owns the node.
func TestProgramPanicSurfacesFromRun(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			m := smallMachine(4, shards)
			if m.Shards() != shards {
				t.Fatalf("machine runs %d shards, want %d", m.Shards(), shards)
			}
			defer func() {
				if r := recover(); r != "node 3 failed" {
					t.Fatalf("recovered %v, want the program's panic value", r)
				}
			}()
			m.Run(failingProgram)
			t.Fatal("Run returned; expected the program's panic")
		})
	}
}

// TestProgramPanicIsAContainedSweepError: under the sweep orchestrator a
// program panic is the failing job's error, and its sibling jobs complete.
func TestProgramPanicIsAContainedSweepError(t *testing.T) {
	job := func(id string, prog func(n *Node)) sweep.Job {
		return sweep.Job{ID: id, Run: func() sweep.Outcome {
			st := smallMachine(2, 1).Run(prog)
			return sweep.Outcome{Metrics: map[string]float64{"exec_us": st.ExecTime.Microseconds()}}
		}}
	}
	ok := func(n *Node) { n.Barrier() }
	res := sweep.Run(sweep.Config{Jobs: 2}, []sweep.Job{
		job("ok-a", ok), job("boom", failingProgram), job("ok-b", ok),
	})
	if !strings.Contains(res[1].Err, "panic: node 1 failed") {
		t.Fatalf("failing job's error = %q, want the program's panic", res[1].Err)
	}
	for _, r := range []sweep.Result{res[0], res[2]} {
		if r.Err != "" || r.Metrics["exec_us"] <= 0 {
			t.Fatalf("sibling job %s: err %q, metrics %v", r.ID, r.Err, r.Metrics)
		}
	}
}
