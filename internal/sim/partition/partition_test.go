package partition_test

import (
	"fmt"
	"testing"

	"nisim/internal/sim"
	"nisim/internal/sim/partition"
)

const lookahead = 40 * sim.Nanosecond

// harness is a group over nodesPerShard*shards synthetic nodes, with one
// receiver per node recording every arrival.
type harness struct {
	g       *partition.Group
	engines []*sim.Engine
	shardOf []int
	nodes   []*node
}

type node struct {
	h   *harness
	eng *sim.Engine
	id  int
	seq uint64 // per-node post sequence, what netsim's postSeq models

	got     []arrival
	chain   int // remaining self-chain events (hot-shard stress)
	fanout  int // post to every other node each chain step when > 0
	blowVal any // panic value to raise on first delivery, if non-nil
}

type arrival struct {
	at  sim.Time
	arg uint64
}

func newHarness(shards, nodesPerShard int) *harness {
	h := &harness{}
	for s := 0; s < shards; s++ {
		h.engines = append(h.engines, sim.NewEngine())
	}
	for id := 0; id < shards*nodesPerShard; id++ {
		s := id % shards // interleaved, so consecutive ids hit different shards
		h.shardOf = append(h.shardOf, s)
		h.nodes = append(h.nodes, &node{h: h, eng: h.engines[s], id: id})
	}
	h.g = partition.New(h.engines, h.shardOf, lookahead)
	return h
}

// post sends arg from n to dst, firing one lookahead from n's clock —
// the same shape as a netsim endpoint post, routed directly when the
// destination shares n's shard.
func (n *node) post(dst int, arg uint64) {
	n.seq++
	at := n.eng.Now() + lookahead
	if n.h.g.ShardOf(dst) == n.h.shardOf[n.id] {
		n.h.nodes[dst].eng.AtEventPosted(at, n.id, n.seq, deliver, n.h.nodes[dst], arg)
		return
	}
	n.h.g.Post(n.id, dst, at, n.eng.Now(), n.seq, deliver, n.h.nodes[dst], arg)
}

// deliver records an arrival at the destination, checking the destination
// clock against the event timestamp: firing with eng.Now() != at would be
// a timestamp inversion across the barrier.
func deliver(recv any, arg uint64) {
	n := recv.(*node)
	if n.blowVal != nil {
		panic(n.blowVal)
	}
	now := n.eng.Now()
	if len(n.got) > 0 && now < n.got[len(n.got)-1].at {
		panic(fmt.Sprintf("node %d: arrival at %v after arrival at %v", n.id, now, n.got[len(n.got)-1].at))
	}
	n.got = append(n.got, arrival{at: now, arg: arg})
}

// step is the hot node's self-chain: every event schedules the next 1 ns
// out and posts to a rotating remote destination, keeping one shard
// saturated while the others only ever see integrated cross-shard events.
func step(recv any, arg uint64) {
	n := recv.(*node)
	if n.fanout > 0 {
		dst := int(arg) % len(n.h.nodes)
		if dst == n.id {
			dst = (dst + 1) % len(n.h.nodes)
		}
		n.post(dst, arg)
	}
	n.chain--
	if n.chain > 0 {
		n.eng.AfterEvent(1*sim.Nanosecond, step, n, arg+1)
	}
}

// TestHotShardStress runs one saturated shard against idle peers: shard 0
// executes a 20000-event chain at 1 ns spacing, posting every event to a
// rotating cross-shard destination. The run must go dry (no deadlock at
// the barrier, no worker stranded), every post must arrive exactly once,
// and every arrival must land at its scheduled time on its destination's
// clock (deliver panics on inversion, which Run surfaces).
func TestHotShardStress(t *testing.T) {
	h := newHarness(4, 2)
	defer h.g.Close()
	hot := h.nodes[0]
	hot.chain = 20000
	hot.fanout = 1
	hot.eng.AtEvent(0, step, hot, 1)

	if stopped := h.g.Run(partition.Control{}); stopped {
		t.Fatal("Run reported a control stop; expected it to go dry")
	}
	total := 0
	for _, n := range h.nodes[1:] {
		total += len(n.got)
		for i := 1; i < len(n.got); i++ {
			if n.got[i].at < n.got[i-1].at {
				t.Fatalf("node %d: arrivals out of order: %v then %v", n.id, n.got[i-1].at, n.got[i].at)
			}
		}
	}
	if total != 20000 {
		t.Fatalf("delivered %d of 20000 posts", total)
	}
}

// TestTiePostsOrderBySource has two nodes on different shards post to the
// same destination with identical firing times and identical source
// clocks: integration must order the tie by (source node, sequence) — the
// content-based key — not by outbox drain order.
func TestTiePostsOrderBySource(t *testing.T) {
	h := newHarness(2, 2) // nodes 0,2 on shard 0; nodes 1,3 on shard 1
	defer h.g.Close()
	// Nodes 3 and 1 (both shard 1) each post twice to node 0 (shard 0) at
	// time 0; all four events fire at the same instant with the same
	// schedule stamp. Higher node id posts first to prove drain order does
	// not leak through.
	fire := func(recv any, _ uint64) {
		n := recv.(*node)
		n.post(0, uint64(n.id*10+1))
		n.post(0, uint64(n.id*10+2))
	}
	h.engines[1].AtEvent(0, fire, h.nodes[3], 0)
	h.engines[1].AtEvent(0, fire, h.nodes[1], 0)

	h.g.Run(partition.Control{})
	want := []uint64{11, 12, 31, 32} // (src, seq) order, not post order
	if len(h.nodes[0].got) != len(want) {
		t.Fatalf("node 0 got %d arrivals, want %d", len(h.nodes[0].got), len(want))
	}
	for i, a := range h.nodes[0].got {
		if a.arg != want[i] {
			t.Fatalf("arrival %d: arg %d, want %d (full: %+v)", i, a.arg, want[i], h.nodes[0].got)
		}
	}
}

// TestControlCapAndStop checks both Control hooks: CapWindow bounds every
// window, and AfterWindow can stop the run with events still pending (Run
// returns true).
func TestControlCapAndStop(t *testing.T) {
	h := newHarness(2, 1)
	defer h.g.Close()
	hot := h.nodes[0]
	hot.chain = 1000
	hot.eng.AtEvent(0, step, hot, 1)

	const cap = 10 * sim.Nanosecond
	windows := 0
	stopped := h.g.Run(partition.Control{
		CapWindow: func(now, proposed sim.Time) sim.Time {
			if end := now + cap; end < proposed {
				return end
			}
			return proposed
		},
		AfterWindow: func(end sim.Time) bool {
			windows++
			return end < 100*sim.Nanosecond
		},
	})
	if !stopped {
		t.Fatal("Run went dry; expected AfterWindow to stop it")
	}
	if windows != 10 {
		t.Fatalf("saw %d windows to reach 100ns under a 10ns cap, want 10", windows)
	}
}

// TestWindowPanicPropagates routes a shard-1 panic through the barrier to
// the coordinator: Run must re-raise the original value (not deadlock, not
// swallow it), and the group must be closed afterwards.
func TestWindowPanicPropagates(t *testing.T) {
	h := newHarness(3, 1)
	boom := h.nodes[1]
	boom.blowVal = "boom"
	h.engines[0].AtEvent(0, func(recv any, _ uint64) {
		recv.(*node).post(1, 7)
	}, h.nodes[0], 0)

	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want the shard's panic value", r)
		}
		h.g.Close() // must be a no-op after the failure path closed the group
	}()
	h.g.Run(partition.Control{})
	t.Fatal("Run returned; expected a propagated panic")
}

// TestWindowEndsNeverAdmitsEarly is the adaptive-window safety property,
// checked exhaustively over a deterministic grid of shard states: for
// every shard d, the computed end must not exceed lookahead plus the
// earliest event any other shard could execute this round — which is
// itself bounded by that shard's own window, so the recursive bound
// closes as min(next[r], m1+lookahead)+lookahead. Growth is also pinned:
// the minimum's owner must get a window strictly wider than the classic
// global m1+lookahead whenever its peers lag by more than the gap, and
// no shard's window may ever be narrower than the classic one.
func TestWindowEndsNeverAdmitsEarly(t *testing.T) {
	const L = lookahead
	// A deterministic pseudo-random walk over next-event layouts: values
	// chosen to hit ties, absent shards, large gaps, and near-gaps.
	vals := []sim.Time{0, 1, 39, 40, 41, 80, 81, 1000}
	for _, shards := range []int{2, 3, 4} {
		next := make([]sim.Time, shards)
		has := make([]bool, shards)
		ends := make([]sim.Time, shards)
		rng := uint64(12345)
		for iter := 0; iter < 20000; iter++ {
			any := false
			for s := range next {
				rng = rng*6364136223846793005 + 1442695040888963407
				pick := int(rng>>33) % (len(vals) + 1)
				if pick == len(vals) {
					has[s] = false
				} else {
					has[s], next[s] = true, vals[pick]*sim.Nanosecond
				}
				any = any || has[s]
			}
			if !any {
				continue
			}
			partition.WindowEnds(next, has, L, ends)
			m1 := sim.Time(0)
			first := true
			for s := range next {
				if has[s] && (first || next[s] < m1) {
					m1, first = next[s], false
				}
			}
			for d := range ends {
				// Conservative bound: nothing another shard executes this
				// round fires before min(next[r], m1+L), so nothing it posts
				// to d arrives before that +L.
				bound := m1 + 2*L
				for r := range next {
					if r == d || !has[r] {
						continue
					}
					if b := min(next[r], m1+L) + L; b < bound {
						bound = b
					}
				}
				if ends[d] > bound {
					t.Fatalf("next=%v has=%v: shard %d end %v exceeds conservative bound %v",
						next, has, d, ends[d], bound)
				}
				if ends[d] < m1+L {
					t.Fatalf("next=%v has=%v: shard %d end %v narrower than the global window %v",
						next, has, d, ends[d], m1+L)
				}
				// The minimum's owner always makes progress past its event.
				if has[d] && next[d] == m1 && ends[d] <= m1 {
					t.Fatalf("next=%v has=%v: minimum owner %d got a stalled window %v", next, has, d, ends[d])
				}
			}
		}
	}
	// Growth, pinned on a concrete layout: shard 0 at 10ns, shard 1 idle
	// at 500ns. The classic policy would stop shard 0 at 10+L; the
	// adaptive one runs it to the bounce-back cap 10+2L, and shard 1 only
	// to what shard 0 could send it.
	next := []sim.Time{10 * sim.Nanosecond, 500 * sim.Nanosecond}
	has := []bool{true, true}
	ends := make([]sim.Time, 2)
	partition.WindowEnds(next, has, L, ends)
	if want := 10*sim.Nanosecond + 2*L; ends[0] != want {
		t.Errorf("busy-shard end %v, want the widened %v", ends[0], want)
	}
	if want := 10*sim.Nanosecond + L; ends[1] != want {
		t.Errorf("lagging-shard end %v, want the classic %v", ends[1], want)
	}
}

// TestAdaptiveWindowsShrinkBarrierCount runs the hot-shard chain with no
// cross-shard traffic at all: the idle shards' queues stay empty, so the
// busy shard's windows grow to the 2·lookahead bounce-back cap and the
// run takes roughly half the barriers the classic global window would.
func TestAdaptiveWindowsShrinkBarrierCount(t *testing.T) {
	h := newHarness(2, 1)
	defer h.g.Close()
	hot := h.nodes[0]
	hot.chain = 8000 // 8000 events at 1 ns spacing: ~8 µs of simulated time
	hot.eng.AtEvent(0, step, hot, 1)

	windows := 0
	h.g.Run(partition.Control{AfterWindow: func(sim.Time) bool { windows++; return true }})
	classic := 8000 / int(lookahead/sim.Nanosecond) // one barrier per lookahead
	if windows > classic/2+2 {
		t.Fatalf("saw %d windows for an isolated 8000 ns chain; adaptive windows should need ~%d (classic %d)",
			windows, classic/2, classic)
	}
	// One shard does all the work, so it is every window's busiest.
	want := partition.Stats{Windows: uint64(windows), Events: 8000, Busiest: 8000}
	if got := h.g.Stats(); got != want {
		t.Fatalf("Stats() = %+v, want %+v", got, want)
	}
}

// TestNewValidates covers the constructor's contract checks.
func TestNewValidates(t *testing.T) {
	engines := []*sim.Engine{sim.NewEngine()}
	for name, fn := range map[string]func(){
		"no engines":     func() { partition.New(nil, nil, lookahead) },
		"zero lookahead": func() { partition.New(engines, []int{0}, 0) },
		"bad shard map":  func() { partition.New(engines, []int{1}, lookahead) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: New did not panic", name)
				}
			}()
			fn()
		}()
	}
}
