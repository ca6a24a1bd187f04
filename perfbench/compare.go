package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// runRecord is one benchmark run read back from its captured output.
type runRecord struct {
	file   string
	detail detail
	values map[string]float64
}

// benchSpec is the part of BENCHMARK.json compare mode needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain compares two sets of runs, each a directory of files holding
// the captured standard output of benchmark runs. For each workload and
// end-to-end metric it prints both sides' median and quartiles, the share
// of pairs the change wins and a verdict; it then compares digests and
// deterministic counters exactly. It exits 1 when any of those differ.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition giving each metric's direction and bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare [-benchmark BENCHMARK.json] <parent-dir> <change-dir>")
		return 2
	}
	raw, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *specPath, err)
		return 1
	}
	var sides [2][]runRecord
	for i := range sides {
		if sides[i], err = readRuns(fs.Arg(i)); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	return compareRuns(spec, sides[0], sides[1], stdout)
}

// readRuns reads every run in the files of dir, in file-name order.
func readRuns(dir string) ([]runRecord, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	var runs []runRecord
	for _, name := range names {
		f, err := os.Open(name)
		if err != nil {
			return nil, err
		}
		rs, err := parseRuns(name, f)
		f.Close()
		if err != nil {
			return nil, err
		}
		runs = append(runs, rs...)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no benchmark runs found", dir)
	}
	return runs, nil
}

// parseRuns pairs each detail line with the result line after it.
func parseRuns(name string, r io.Reader) ([]runRecord, error) {
	var runs []runRecord
	var pending *detail
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 || line[0] != '{' {
			continue
		}
		var d struct {
			Detail *detail `json:"detail"`
		}
		if json.Unmarshal(line, &d) == nil && d.Detail != nil {
			pending = d.Detail
			continue
		}
		var res struct {
			Metrics map[string]metric `json:"metrics"`
		}
		if err := json.Unmarshal(line, &res); err != nil || res.Metrics == nil || pending == nil {
			continue
		}
		rec := runRecord{file: name, detail: *pending, values: map[string]float64{}}
		for k, m := range res.Metrics {
			rec.values[k] = m.Value
		}
		runs = append(runs, rec)
		pending = nil
	}
	return runs, sc.Err()
}

// verdict classifies one workload × metric by the paired-runs rule: the
// change improved when it wins at least nine tenths of the pairs and its
// median beats the parent's by more than the parent's interquartile
// range; it is unresolved when the parent's own spread is wider than the
// bound (unless every change run beats every parent run); otherwise it is
// worse when its median is worse by more than the bound, else unchanged.
func verdict(parent, change []float64, lowerBetter bool, bound float64) (wins int, v string) {
	better := func(c, p float64) bool {
		if lowerBetter {
			return c < p
		}
		return c > p
	}
	pairs := min(len(parent), len(change))
	for i := 0; i < pairs; i++ {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	qp, qc := quartiles(parent), quartiles(change)
	iqr := qp[2] - qp[0]
	gain := qp[1] - qc[1]
	if !lowerBetter {
		gain = -gain
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p) {
				allBetter = false
			}
		}
	}
	switch {
	case pairs > 0 && float64(wins) >= 0.9*float64(pairs) && gain > iqr:
		return wins, "improved"
	case qp[1] != 0 && iqr/qp[1] > bound && !allBetter:
		return wins, "unresolved"
	case qp[1] != 0 && -gain/qp[1] > bound:
		return wins, "worse"
	}
	return wins, "unchanged"
}

func compareRuns(spec benchSpec, parent, change []runRecord, w io.Writer) int {
	workloadsSeen := map[string]bool{}
	for _, r := range append(append([]runRecord(nil), parent...), change...) {
		if r.detail.Trace == 0 {
			workloadsSeen[r.detail.Workload] = true
		}
	}
	var wls []string
	for wl := range workloadsSeen {
		wls = append(wls, wl)
	}
	sort.Strings(wls)
	fmt.Fprintf(w, "%-10s %-14s %-32s %-32s %-7s %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	for _, wl := range wls {
		for _, m := range spec.EndToEnd {
			pv, cv := series(parent, wl, m.Name), series(change, wl, m.Name)
			if len(pv) == 0 || len(cv) == 0 {
				fmt.Fprintf(w, "%-10s %-14s missing runs (parent %d, change %d)\n", wl, m.Name, len(pv), len(cv))
				continue
			}
			wins, v := verdict(pv, cv, m.Better == "lower", m.Bound)
			qp, qc := quartiles(pv), quartiles(cv)
			fmt.Fprintf(w, "%-10s %-14s %-32s %-32s %-7s %s\n", wl, m.Name,
				fmt.Sprintf("%.6g [%.6g, %.6g]", qp[1], qp[0], qp[2]),
				fmt.Sprintf("%.6g [%.6g, %.6g]", qc[1], qc[0], qc[2]),
				fmt.Sprintf("%d/%d", wins, min(len(pv), len(cv))), v)
		}
	}
	diffs := exactDiffs(parent, change)
	if len(diffs) == 0 {
		fmt.Fprintln(w, "digests and deterministic counters: identical")
		return 0
	}
	for _, d := range diffs {
		fmt.Fprintln(w, "DIFFERS:", d)
	}
	return 1
}

// series returns one metric's values over the untraced runs of a workload.
func series(runs []runRecord, wl, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if r.detail.Workload == wl && r.detail.Trace == 0 {
			if v, ok := r.values[metric]; ok {
				out = append(out, v)
			}
		}
	}
	return out
}

// exactDiffs compares, per workload and seed, the digest and every
// deterministic counter of every run on both sides against the first run.
func exactDiffs(parent, change []runRecord) []string {
	type key struct {
		wl   string
		seed uint64
	}
	ref := map[key]runRecord{}
	var diffs []string
	for _, side := range []struct {
		name string
		runs []runRecord
	}{{"parent", parent}, {"change", change}} {
		for _, r := range side.runs {
			k := key{r.detail.Workload, r.detail.Seed}
			base, ok := ref[k]
			if !ok {
				ref[k] = r
				continue
			}
			where := fmt.Sprintf("%s seed %d (%s %s vs %s)", k.wl, k.seed, side.name, r.file, base.file)
			if r.detail.Digest != base.detail.Digest {
				diffs = append(diffs, fmt.Sprintf("%s: digest %s vs %s", where, r.detail.Digest, base.detail.Digest))
			}
			var names []string
			for n := range base.detail.Counts {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				if v := r.detail.Counts[n]; v != base.detail.Counts[n] {
					diffs = append(diffs, fmt.Sprintf("%s: %s %v vs %v", where, n, v, base.detail.Counts[n]))
				}
			}
			if a, b := strings.Join(r.detail.Failures, "; "), strings.Join(base.detail.Failures, "; "); a != b {
				diffs = append(diffs, fmt.Sprintf("%s: failed cells %q vs %q", where, a, b))
			}
		}
	}
	return diffs
}
