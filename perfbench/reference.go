package main

import "time"

// reference times a fixed slice of host work before every cell execution,
// so that the time metrics can be reported at a nominal host speed.
//
// The host's speed drifts. On the shared 2-vCPU virtual machine the
// benchmark was tuned on, the same 25 cells of paper16 ran up to 25%
// faster or slower from one second to the next, and 36-second windows
// differed by 4–9% (coefficient of variation), with CPU time following
// wall time: the processor itself ran slower. Reference slices timed
// between the cells follow that drift (their totals over 9-second windows
// correlated with the cells' at 0.95–0.99), while a change to the
// simulator moves only the cells, since the benchmark's own code is fixed.
// They follow a single-threaded workload's drift only: see
// workloadDef.procs.
type reference struct {
	heap   [refHeapLen]uint64
	ring   []uint32 // a random cyclic permutation, chased through
	total  time.Duration
	slices int
	owed   time.Duration // the last cell execution's time, for run
}

const (
	refHeapLen = 512
	refHeapOps = 6000
	refRingLen = 1 << 15 // 128 KiB: beyond a first-level cache, within a second
	refChases  = 20000
	// refNominal is a reference slice's time at the nominal host speed, a
	// round value near the slice times measured on the virtual machine
	// described above (about 300 µs in its fast spells).
	refNominal = 350 * time.Microsecond
	// refShare is the least share of a cell execution's time spent on the
	// reference slices before the next.
	refShare = 0.02
)

func newReference() *reference {
	r := &reference{ring: make([]uint32, refRingLen)}
	perm := make([]uint32, refRingLen)
	for i := range perm {
		perm[i] = uint32(i)
	}
	x := uint64(1)
	for i := len(perm) - 1; i > 0; i-- {
		x = xorshift(x)
		j := int(x % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i, p := range perm {
		r.ring[p] = perm[(i+1)%len(perm)]
	}
	return r
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// slice runs and times one reference slice: pushes onto a bounded binary
// min-heap, popping the minimum when it is full, then a chase through the
// ring. It allocates nothing, so it never sets off a collection of the
// simulator's garbage.
func (r *reference) slice() time.Duration {
	t := now()
	h := &r.heap
	x := uint64(88172645463325252)
	n := 0
	for i := 0; i < refHeapOps; i++ {
		x = xorshift(x)
		if n == len(h) {
			n--
			h[0] = h[n]
			for j := 0; ; {
				c := 2*j + 1
				if c >= n {
					break
				}
				if c+1 < n && h[c+1] < h[c] {
					c++
				}
				if h[j] <= h[c] {
					break
				}
				h[j], h[c] = h[c], h[j]
				j = c
			}
		}
		h[n] = x
		for j := n; j > 0; {
			p := (j - 1) / 2
			if h[p] <= h[j] {
				break
			}
			h[p], h[j] = h[j], h[p]
			j = p
		}
		n++
	}
	p := uint32(x % refRingLen)
	for i := 0; i < refChases; i++ {
		p = r.ring[p]
	}
	h[0] += uint64(p) // keeps the chase from being optimised away
	d := now().Sub(t)
	r.total += d
	r.slices++
	return d
}

// run runs reference slices, at least one, until they have taken
// refShare of owed, the last cell execution's time. It first reads the
// slices' data, untimed, so every slice starts with it cached: otherwise
// the first slice after a cell would run slower than the rest, and the
// mean slice time would depend on how long the simulator's cells are.
func (r *reference) run() {
	var x uint64
	for _, v := range r.heap {
		x += v
	}
	for _, v := range r.ring {
		x += uint64(v)
	}
	r.heap[0] += x & 1 // keeps the reads from being optimised away
	limit := time.Duration(refShare * float64(r.owed))
	for spent := r.slice(); spent < limit; {
		spent += r.slice()
	}
	r.owed = 0
}

// factor is refNominal over the run's mean slice time. A time measured
// in the run, multiplied by it, is that time at the nominal host speed.
func (r *reference) factor() float64 {
	return float64(refNominal) * float64(r.slices) / float64(r.total)
}
