// Package machine assembles the simulated parallel machine of Table 3:
// 16 workstation-like nodes, each with a 1 GHz processor, a 1 MB
// direct-mapped cache, 120 ns main memory, a 250 MHz / 256-bit MOESI
// snooping memory bus, and one of the studied NIs attached directly to that
// bus; the nodes are connected by a 40 ns network with return-to-sender
// flow control.
package machine

import (
	"fmt"

	"nisim/internal/cache"
	"nisim/internal/faults"
	"nisim/internal/mainmem"
	"nisim/internal/membus"
	"nisim/internal/msglayer"
	"nisim/internal/netsim"
	"nisim/internal/nic"
	"nisim/internal/proc"
	"nisim/internal/sim"
	"nisim/internal/sim/partition"
	"nisim/internal/stats"
	"nisim/internal/trace"
)

// AppBase is the start of the per-node application data region in DRAM. It
// is offset so that small application working sets begin at cache offset
// 0x40000 (256 KB), clear of the staggered NI queue structures; large
// working sets conflict with everything, as on a real direct-mapped cache.
const AppBase membus.Addr = 0x0104_0000

// Config selects the machine to build. DefaultConfig reproduces Table 3.
type Config struct {
	Nodes int
	// NIKind selects a named NI design; ignored when NISpec is set.
	NIKind nic.Kind
	// NISpec, when non-nil, builds every node's NI from an arbitrary design
	// point of the transfer-engine × buffering-policy space instead of a
	// named Kind. The spec must Validate.
	NISpec      *nic.Spec
	FlowBuffers int // flow-control buffers per direction; netsim.Infinite allowed

	CPU    sim.Clock
	Bus    membus.Timing
	Cache  cache.Config
	MemLat sim.Time
	NI     nic.Config
	Net    netsim.Config
	Msg    msglayer.Config

	// Faults configures deterministic network fault injection. The zero
	// value (all rates zero, no outages) installs no fault plane and is
	// bit-identical to the lossless network. Nonzero fault rates normally
	// want Net.Reliability enabled too, or lost messages hang the program
	// (Run then reports a stall diagnostic instead of returning).
	Faults faults.Config

	// StallHorizon is the fault-run watchdog interval: when faults are
	// injected and the network makes no protocol progress for this long
	// while flow-control buffers are held, Run panics with the quiescence
	// diagnostic instead of livelocking on spinning software. Zero selects
	// DefaultStallHorizon; lossless runs never arm the watchdog unless
	// Watchdog forces it.
	StallHorizon sim.Time

	// Watchdog arms the stall/starvation watchdog even when no faults are
	// injected. Overload runs want this: an admission policy bouncing every
	// arrival starves the workload without a single injected fault.
	Watchdog bool

	// StarvationHorizon is how long network activity may keep rising with
	// zero deliveries before the watchdog declares sustained-overload
	// starvation (distinct from livelock, where activity itself is flat).
	// Zero selects DefaultStarvationTicks stall horizons.
	StarvationHorizon sim.Time

	// Tracer, when non-nil, receives a structured event line per bus
	// transaction (and any other subsystems wired to it). Off by default.
	Tracer *trace.Tracer

	// Shards splits the event engine into this many conservative-parallel
	// partitions (internal/sim/partition): nodes are divided into
	// contiguous shards, each driven by its own engine on its own worker
	// goroutine, synchronized at time-window barriers sized by the network
	// latency (the lookahead). 0 or 1 is today's serial engine,
	// byte-for-byte. Values above Nodes are clamped; a machine whose
	// Tracer is set falls back to serial automatically (the tracer is one
	// shared event stream), as does a network with no positive latency to
	// use as lookahead. Every NI spec partitions — including the throttled
	// CNI32Qm, whose credit returns ride the message layer — and so does
	// every workload. Results are byte-identical across shard counts; only
	// wall-clock time changes (see DESIGN.md §10).
	Shards int
}

// DefaultStallHorizon is how long the fault-run watchdog waits for network
// progress before declaring a stall: generous against any legitimate lull
// (the longest bounce backoffs and retransmission timeouts are well under a
// millisecond on the Table 3 network).
const DefaultStallHorizon = 2 * sim.Millisecond

// DefaultStarvationTicks is the default starvation patience in stall
// horizons: activity rising for this many consecutive watchdog ticks with
// not one delivery is a bounce/retry storm, not a slow receiver.
const DefaultStarvationTicks = 8

// DefaultConfig returns the paper's system parameters with the given NI and
// flow-control buffer count.
func DefaultConfig(kind nic.Kind, flowBuffers int) Config {
	return Config{
		Nodes:       16,
		NIKind:      kind,
		FlowBuffers: flowBuffers,
		CPU:         sim.GHz(1),
		Bus:         membus.DefaultTiming(),
		Cache:       cache.DefaultConfig(),
		MemLat:      120 * sim.Nanosecond,
		NI:          nic.DefaultConfig(),
		Net:         netsim.DefaultConfig(),
		Msg:         msglayer.DefaultConfig(),
	}
}

// Node is one machine node as seen by application code.
type Node struct {
	ID   int
	Proc *proc.Proc
	NI   nic.NI
	EP   *msglayer.Endpoint

	mach         *Machine
	barrierEpoch int // releases seen
	barrierCount int // arrivals seen (coordinator only)
}

// Machine is an assembled system ready to run one program.
type Machine struct {
	// Eng is the engine of shard 0 — the only engine when the machine is
	// serial (Shards <= 1, the default).
	Eng *sim.Engine
	// Engines holds one engine per shard; Engines[0] == Eng. Serial
	// machines have exactly one.
	Engines []*sim.Engine
	Cfg     Config
	Nodes   []*Node
	Net     *netsim.Network
	Stats   *stats.Machine

	group   *partition.Group // nil when serial
	shardOf []int            // node id -> shard index
	ran     bool
}

// Shards returns the number of engine shards actually in use (1 for a
// serial machine, even when Config.Shards requested more but the
// configuration forced the serial fallback).
func (m *Machine) Shards() int { return len(m.Engines) }

// PartitionStats returns the partitioned engine's barrier-round counters
// (see partition.Stats); they are zero on a serial machine.
func (m *Machine) PartitionStats() partition.Stats {
	if m.group == nil {
		return partition.Stats{}
	}
	return m.group.Stats()
}

// effectiveShards clamps the requested shard count to what the
// configuration can partition: at most one shard per node, serial when the
// network has no positive latency to serve as lookahead, and serial when a
// tracer is attached (the tracer is a single shared event stream).
func effectiveShards(cfg Config) int {
	s := cfg.Shards
	if s < 1 {
		s = 1
	}
	if s > cfg.Nodes {
		s = cfg.Nodes
	}
	if cfg.Net.Latency <= 0 || cfg.Tracer != nil {
		s = 1
	}
	return s
}

// New builds a machine per cfg.
func New(cfg Config) *Machine {
	if cfg.Nodes < 1 {
		panic("machine: need at least one node")
	}
	return build(cfg, effectiveShards(cfg))
}

func build(cfg Config, shards int) *Machine {
	engines := make([]*sim.Engine, shards)
	for s := range engines {
		engines[s] = sim.NewEngine()
	}
	// Contiguous balanced split: node i belongs to shard i*S/N.
	shardOf := make([]int, cfg.Nodes)
	for i := range shardOf {
		shardOf[i] = i * shards / cfg.Nodes
	}
	m := &Machine{
		Eng:     engines[0],
		Engines: engines,
		shardOf: shardOf,
		Cfg:     cfg,
		Net:     netsim.New(engines[0], cfg.Net, cfg.Nodes, cfg.FlowBuffers),
		Stats:   stats.NewMachine(cfg.Nodes),
	}
	if shards > 1 {
		m.group = partition.New(engines, shardOf, cfg.Net.Latency)
		m.Net.Partition(m.group, func(node int) *sim.Engine { return engines[shardOf[node]] })
	}
	for i := 0; i < cfg.Nodes; i++ {
		eng := engines[shardOf[i]]
		st := m.Stats.Nodes[i]
		bus := membus.New(eng, cfg.Bus, st)
		if cfg.Tracer != nil && cfg.Tracer.Enabled(trace.Bus) {
			i := i
			bus.Trace = func(format string, args ...any) {
				cfg.Tracer.Event(eng.Now(), trace.Bus, i, format, args...)
			}
		}
		mem := mainmem.New(fmt.Sprintf("dram-%d", i), cfg.MemLat, eng)
		bus.MapRange(nic.DRAMBase, nic.DRAMLimit, mem)
		c := cache.New(fmt.Sprintf("cache-%d", i), eng, bus, cfg.Cache, st)
		pr := &proc.Proc{ID: i, Eng: eng, Bus: bus, Cache: c, Stats: st, CPU: cfg.CPU}
		ep := m.Net.Endpoint(i)
		ep.Stats = st
		env := &nic.Env{
			Eng: eng, ID: i, Bus: bus, Mem: mem, EP: ep, Stats: st, CPU: cfg.CPU, Cfg: cfg.NI,
		}
		if cfg.Tracer != nil && cfg.Tracer.Enabled(trace.NIC) {
			i := i
			env.Trace = func(format string, args ...any) {
				cfg.Tracer.Event(eng.Now(), trace.NIC, i, format, args...)
			}
		}
		var ni nic.NI
		if cfg.NISpec != nil {
			var err error
			ni, err = nic.NewFromSpec(*cfg.NISpec, env)
			if err != nil {
				panic(fmt.Sprintf("machine: %v", err))
			}
		} else {
			ni = nic.New(cfg.NIKind, env)
		}
		node := &Node{ID: i, Proc: pr, NI: ni, mach: m}
		node.EP = msglayer.New(pr, ni, cfg.Net, cfg.Msg)
		m.Nodes = append(m.Nodes, node)
	}
	// Wire peer-NI identity resolution for send-throttled NIs. The lookup
	// carries no synchronous state access — credit returns ride the message
	// layer with one network latency of lag (nic.PeerAware) — so throttled
	// specs partition as freely as every other design point.
	for _, n := range m.Nodes {
		if pa, ok := n.NI.(nic.PeerAware); ok {
			pa.SetPeerLookup(func(id int) nic.NI { return m.Nodes[id].NI })
		}
	}
	if !cfg.Faults.Zero() {
		inj := faults.New(cfg.Faults)
		// Fork every per-endpoint fault stream up front: stream creation is
		// a pure function of seed and id, and eager forking keeps the
		// stream map read-only once shards start running concurrently.
		inj.Prefork(cfg.Nodes)
		m.Net.SetFaultPlane(inj)
	}
	return m
}

// Run executes prog on every node (as that node's processor software) until
// all instances return, then records the parallel execution time and tears
// the machine down. A Machine runs exactly one program.
func (m *Machine) Run(prog func(n *Node)) *stats.Machine {
	if m.ran {
		panic("machine: Run called twice")
	}
	m.ran = true
	// Kill every live process on every exit path, panics included: a panic
	// in one node's program surfaces from the engine mid-run, and its
	// parked peers must not outlive the machine.
	defer m.drainAll()
	m.registerBarrier()
	if m.group != nil {
		return m.runSharded(prog)
	}

	// The run ends at the event in which the last node finishes or the
	// watchdog below declares a stall: each of those sites stops the engine,
	// which lets Run fast-forward process sleeps that a RunWhile condition
	// would have to check between every pair of events.
	done := 0
	for _, n := range m.Nodes {
		n := n
		p := m.Eng.Spawn(fmt.Sprintf("app-%d", n.ID), func(p *sim.Process) {
			prog(n)
			if done++; done == len(m.Nodes) {
				m.Eng.Stop()
			}
		})
		n.Proc.Bind(p)
	}

	// Livelock/starvation watchdog, armed for fault runs and on request: a
	// lost message with the reliability layer off leaves software spinning
	// (poll-while-blocked), so the event queue never drains and the
	// quiescence check below never fires. Instead, sample network progress
	// every StallHorizon. Two equal activity samples with flow-control
	// buffers still held mean nothing can ever advance (livelock). Activity
	// rising tick after tick with not one delivery is the other failure
	// mode — a sustained bounce/retransmission storm starving the workload —
	// and is diagnosed distinctly. The tick stops rescheduling once it is
	// the only event source, handing stall detection back to the queue-drain
	// path.
	stalled := ""
	if !m.Cfg.Faults.Zero() || m.Cfg.Watchdog {
		horizon := m.Cfg.StallHorizon
		if horizon <= 0 {
			horizon = DefaultStallHorizon
		}
		starveAfter := int64(DefaultStarvationTicks)
		if m.Cfg.StarvationHorizon > 0 {
			// Ceiling division: detection happens on whole watchdog ticks.
			starveAfter = int64(m.Cfg.StarvationHorizon / horizon)
			if m.Cfg.StarvationHorizon%horizon != 0 {
				starveAfter++
			}
			if starveAfter < 1 {
				starveAfter = 1
			}
		}
		last, lastDel := int64(-1), int64(-1)
		starvedTicks := int64(0)
		var tick func()
		tick = func() {
			if done >= len(m.Nodes) || stalled != "" {
				return
			}
			act, del := m.Net.Progress()
			if act == last {
				if r := m.Eng.StallReport(); r != "" {
					stalled = fmt.Sprintf("machine: no network progress for %v with %d/%d nodes finished at %v\n%s",
						horizon, done, len(m.Nodes), m.Eng.Now(), r)
					m.Eng.Stop()
					return
				}
			} else if del == lastDel {
				starvedTicks++
				if starvedTicks >= starveAfter {
					if r := m.Net.StarvationReport(); r != "" {
						stalled = fmt.Sprintf("machine: sustained overload starvation — network churning for %v without a delivery, %d/%d nodes finished at %v\n%s",
							sim.Time(starvedTicks)*horizon, done, len(m.Nodes), m.Eng.Now(), r)
						m.Eng.Stop()
						return
					}
				}
			} else {
				starvedTicks = 0
			}
			last, lastDel = act, del
			if m.Eng.Pending() > 0 {
				m.Eng.After(horizon, tick)
			}
		}
		m.Eng.After(horizon, tick)
	}

	m.Eng.Run()
	if stalled != "" {
		panic(stalled)
	}
	if done < len(m.Nodes) && m.Eng.Pending() == 0 {
		// The event queue drained with nodes still running: a lost message,
		// ack, or bounce stranded them. Fail loudly with the quiescence
		// diagnostic instead of silently returning a truncated run.
		panic(fmt.Sprintf("machine: simulation stalled with %d/%d nodes finished at %v\n%s",
			done, len(m.Nodes), m.Eng.Now(), m.Eng.StallReport()))
	}
	m.Stats.ExecTime = m.Eng.Now()
	return m.Stats
}

// runSharded is Run on a partitioned machine: programs are spawned on
// their nodes' shard engines and the partition group drives conservative
// windows, with the watchdog and stall detection replicated at the window
// barriers (windows are capped to land exactly on the watchdog's sampling
// boundaries, so the sampled state matches the serial tick's). Completion,
// stall, and starvation semantics — including the panic messages — are
// identical to the serial path.
func (m *Machine) runSharded(prog func(n *Node)) *stats.Machine {
	N := len(m.Nodes)
	// Per-shard completion counts and finish times: each is written only
	// within its own shard's execution, and the coordinator reads them only
	// at barriers.
	done := make([]int, m.Shards())
	doneAt := make([]sim.Time, m.Shards())
	for _, n := range m.Nodes {
		n := n
		s := m.shardOf[n.ID]
		eng := m.Engines[s]
		p := eng.Spawn(fmt.Sprintf("app-%d", n.ID), func(p *sim.Process) {
			prog(n)
			done[s]++
			doneAt[s] = eng.Now()
		})
		n.Proc.Bind(p)
	}
	total := func() int {
		t := 0
		for _, d := range done {
			t += d
		}
		return t
	}

	stalled := ""
	var ctrl partition.Control
	if !m.Cfg.Faults.Zero() || m.Cfg.Watchdog {
		horizon := m.Cfg.StallHorizon
		if horizon <= 0 {
			horizon = DefaultStallHorizon
		}
		starveAfter := int64(DefaultStarvationTicks)
		if m.Cfg.StarvationHorizon > 0 {
			starveAfter = int64(m.Cfg.StarvationHorizon / horizon)
			if m.Cfg.StarvationHorizon%horizon != 0 {
				starveAfter++
			}
			if starveAfter < 1 {
				starveAfter = 1
			}
		}
		last, lastDel := int64(-1), int64(-1)
		starvedTicks := int64(0)
		nextTick := horizon
		// Cap windows at the next sampling boundary so barriers land on the
		// exact sim times the serial watchdog ticks at.
		ctrl.CapWindow = func(now, proposed sim.Time) sim.Time {
			if proposed > nextTick {
				return nextTick
			}
			return proposed
		}
		ctrl.AfterWindow = func(end sim.Time) bool {
			if total() >= N {
				return false
			}
			if end == nextTick {
				nextTick += horizon
				act, del := m.Net.Progress()
				switch {
				case act == last:
					if r := m.Eng.StallReport(); r != "" {
						stalled = fmt.Sprintf("machine: no network progress for %v with %d/%d nodes finished at %v\n%s",
							horizon, total(), N, end, r)
						return false
					}
				case del == lastDel:
					starvedTicks++
					if starvedTicks >= starveAfter {
						if r := m.Net.StarvationReport(); r != "" {
							stalled = fmt.Sprintf("machine: sustained overload starvation — network churning for %v without a delivery, %d/%d nodes finished at %v\n%s",
								sim.Time(starvedTicks)*horizon, total(), N, end, r)
							return false
						}
					}
				default:
					starvedTicks = 0
				}
				last, lastDel = act, del
			}
			return true
		}
	} else {
		ctrl.AfterWindow = func(end sim.Time) bool { return total() < N }
	}

	// Close on every exit path, panics included: an escaped panic must not
	// leave shard workers spinning on the barrier epoch. Close is
	// idempotent, so the failure path inside the group closing first is
	// fine.
	finished := func() bool {
		defer m.group.Close()
		return m.group.Run(ctrl)
	}()
	if stalled != "" {
		panic(stalled)
	}
	if !finished && total() < N {
		// Every shard's queue drained with nodes still running: a lost
		// message, ack, or bounce stranded them — same diagnosis as the
		// serial path.
		panic(fmt.Sprintf("machine: simulation stalled with %d/%d nodes finished at %v\n%s",
			total(), N, m.Eng.Now(), m.Eng.StallReport()))
	}
	exec := sim.Time(0)
	for _, t := range doneAt {
		if t > exec {
			exec = t
		}
	}
	m.Stats.ExecTime = exec
	return m.Stats
}

// drainAll kills every shard's live processes.
func (m *Machine) drainAll() {
	for _, eng := range m.Engines {
		eng.Drain()
	}
}

// Reserved messaging-layer handler ids (applications use ids below 200).
const (
	HBarrierArrive  = 250
	HBarrierRelease = 251
)

func (m *Machine) registerBarrier() {
	for _, n := range m.Nodes {
		n := n
		n.EP.Register(HBarrierArrive, func(ep *msglayer.Endpoint, msg *msglayer.Message) {
			n.barrierCount++
		})
		n.EP.Register(HBarrierRelease, func(ep *msglayer.Endpoint, msg *msglayer.Message) {
			n.barrierEpoch++
		})
	}
}

// Size returns the number of nodes in the machine.
func (n *Node) Size() int { return len(n.mach.Nodes) }

// SettleSends services the NI until every send this node issued has
// settled: all outgoing flow-control buffers free (delivered, acked, or
// abandoned), the NI-side send queue drained, and no bounced message
// awaiting a software re-push. A program whose *last* sends can bounce —
// an overloaded receiver returning the final barrier release, say — must
// settle before returning, or the bounce lands in the software retry queue
// of a processor that will never poll again and the peer hangs. Closed-loop
// programs never see this (a quiescent receiver has buffer space); open-loop
// overload programs call it before exiting.
func (n *Node) SettleSends() {
	ep := n.mach.Net.Endpoint(n.ID)
	for ep.OutFree() < ep.Buffers() || !n.NI.Idle() || n.NI.NeedsRetry() {
		if !n.EP.PollOne() {
			n.Proc.P.SleepAs(stats.Compute, 200*sim.Nanosecond)
		}
	}
}

// Barrier synchronizes all nodes through the messaging layer: everyone
// sends an arrival to node 0; node 0 broadcasts a release. The traffic (and
// its cost on the node's NI) is part of the simulation, as it was for
// Tempest programs.
func (n *Node) Barrier() {
	N := len(n.mach.Nodes)
	if N == 1 {
		return
	}
	if n.ID == 0 {
		n.EP.WaitUntil(func() bool { return n.barrierCount >= N-1 })
		n.barrierCount -= N - 1
		for i := 1; i < N; i++ {
			n.EP.Send(i, HBarrierRelease, 4, 0)
		}
		return
	}
	target := n.barrierEpoch + 1
	n.EP.Send(0, HBarrierArrive, 4, 0)
	n.EP.WaitUntil(func() bool { return n.barrierEpoch >= target })
}
