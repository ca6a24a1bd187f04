package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"

	"nisim/internal/stats"
)

// counts sums the deterministic per-layer counters over a pass's
// completed cells. Every field repeats exactly from run to run.
type counts struct {
	events         uint64 // sim: engine events, all shards
	shardMax       float64
	shardMean      float64
	busTxns        int64 // membus
	cacheToCache   int64
	memToCache     int64
	uncached       int64
	niCacheHits    int64 // nic
	niCacheMisses  int64
	niBypasses     int64
	prefetches     int64
	admitDrops     int64
	admitBounces   int64
	admitEvictions int64
	fragsSent      int64 // netsim
	fragsRecv      int64
	bounces        int64
	retries        int64
	retransmits    int64
	faultDrops     int64
	deliveryFails  int64
	msgsSent       int64 // msglayer
	msgsRecv       int64
	bytesSent      int64
	dupSuppressed  int64
	sendBlocked    int64
	transferPS     int64 // proc: simulated ps in each category
	bufferingPS    int64
	nodePS         float64 // Σ ExecTime × nodes, ps
	issued         int64   // workload (open loop)
	completed      int64
	p99us          []float64 // per open-loop cell
	goodput        []float64
}

func (c *counts) add(r cellRun) {
	var max, sum uint64
	for _, e := range r.events {
		sum += e
		if e > max {
			max = e
		}
	}
	c.events += sum
	c.shardMax += float64(max)
	c.shardMean += float64(sum) / float64(len(r.events))

	t := r.st.Total()
	c.busTxns += t.BusTransactions
	c.cacheToCache += t.CacheToCache
	c.memToCache += t.MemToCache
	c.uncached += t.UncachedAccesses
	c.niCacheHits += t.NICacheHits
	c.niCacheMisses += t.NICacheMisses
	c.niBypasses += t.NIBypasses
	c.prefetches += t.Prefetches
	c.admitDrops += t.AdmitDrops
	c.admitBounces += t.AdmitBounces
	c.admitEvictions += t.AdmitEvictions
	c.fragsSent += t.FragmentsSent
	c.fragsRecv += t.FragmentsReceived
	c.bounces += t.Bounces
	c.retries += t.Retries
	c.retransmits += t.Retransmits
	c.faultDrops += t.FaultDrops
	c.deliveryFails += t.DeliveryFailures
	c.msgsSent += t.MessagesSent
	c.msgsRecv += t.MessagesReceived
	c.bytesSent += t.BytesSent
	c.dupSuppressed += t.DupSuppressed
	c.sendBlocked += t.SendBlocked
	c.transferPS += int64(t.TimeIn[stats.Transfer])
	c.bufferingPS += int64(t.TimeIn[stats.Buffering])
	c.nodePS += float64(r.st.ExecTime) * float64(len(r.st.Nodes))
	if o := r.ol; o != nil {
		c.issued += o.Issued
		c.completed += o.Completed
		c.p99us = append(c.p99us, o.P99().Microseconds())
		c.goodput = append(c.goodput, o.GoodputMBps)
	}
}

// metrics returns the deterministic per-layer metrics. On closed-loop
// workloads, which issue no requests, completed_per_issued is messages
// received per message sent and the request latency and goodput read 0.
func (c *counts) metrics() map[string]float64 {
	m := map[string]float64{
		"sim.events":                float64(c.events),
		"partition.shard_imbalance": ratio(c.shardMax, c.shardMean),
		"membus.transactions":       float64(c.busTxns),
		"membus.cache_to_cache":     float64(c.cacheToCache),
		"membus.mem_to_cache":       float64(c.memToCache),
		"membus.uncached":           float64(c.uncached),
		"nic.cache_hits":            float64(c.niCacheHits),
		"nic.cache_misses":          float64(c.niCacheMisses),
		"nic.bypasses":              float64(c.niBypasses),
		"nic.prefetches":            float64(c.prefetches),
		"nic.admit_drops":           float64(c.admitDrops),
		"nic.admit_bounces":         float64(c.admitBounces),
		"nic.admit_evictions":       float64(c.admitEvictions),
		"netsim.fragments":          float64(c.fragsSent),
		"netsim.bounces":            float64(c.bounces),
		"netsim.retries":            float64(c.retries),
		"netsim.retransmits":        float64(c.retransmits),
		"netsim.fault_drops":        float64(c.faultDrops),
		"netsim.delivery_failures":  float64(c.deliveryFails),
		"netsim.delivered_per_attempt": ratio(float64(c.fragsRecv),
			float64(c.fragsSent+c.retries+c.retransmits)),
		"msglayer.messages":       float64(c.msgsSent),
		"msglayer.bytes":          float64(c.bytesSent),
		"msglayer.dup_suppressed": float64(c.dupSuppressed),
		"msglayer.send_blocked":   float64(c.sendBlocked),
		"proc.transfer_frac":      ratio(float64(c.transferPS), c.nodePS),
		"proc.buffering_frac":     ratio(float64(c.bufferingPS), c.nodePS),
		"workload.p99_us":         median(c.p99us),
		"workload.goodput_mbps":   median(c.goodput),
	}
	if c.issued > 0 {
		m["workload.completed_per_issued"] = ratio(float64(c.completed), float64(c.issued))
	} else {
		m["workload.completed_per_issued"] = ratio(float64(c.msgsRecv), float64(c.msgsSent))
	}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs, or 0
// for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)]
}

// rank is the 0-based nearest-rank index of the p-quantile of n samples.
func rank(n int, p float64) int {
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// beyond returns how many of n samples lie above the nearest-rank
// p-quantile.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rank(n, p)
}

// isTail reports whether the p-quantile of n samples can be read as a
// tail: at least ten samples lie beyond it.
func isTail(n int, p float64) bool { return beyond(n, p) >= 10 }

// median is the middle value of xs (the mean of the two middle values for
// an even count), or 0 for no samples.
func median(xs []float64) float64 {
	q := quartiles(xs)
	return q[1]
}

// quartiles returns the first quartile, median and third quartile of xs
// by the "exclusive" method of Python's statistics.quantiles(n=4), so the
// benchmark's spreads match those computed from its output.
func quartiles(xs []float64) [3]float64 {
	n := len(xs)
	switch n {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{xs[0], xs[0], xs[0]}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// metricName is the pattern every reported metric name must match: at
// most 64 of [A-Za-z0-9_.-], starting with a letter or digit.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkNames rejects a metric map whose names fall outside metricName.
func checkNames(m map[string]metric) error {
	for name := range m {
		if !metricName.MatchString(name) {
			return fmt.Errorf("metric name %q does not match %s", name, metricName)
		}
	}
	return nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
