package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// loadResults reads saved results from files and directories (every
// *.json result file directly inside a directory).
func loadResults(paths []string) ([]*result, error) {
	var files []string
	for _, p := range paths {
		st, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		if !st.IsDir() {
			files = append(files, p)
			continue
		}
		m, err := filepath.Glob(filepath.Join(p, "*-trace*-seed*.json"))
		if err != nil {
			return nil, err
		}
		files = append(files, m...)
	}
	var out []*result
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out = append(out, &r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no results in %s", strings.Join(paths, " "))
	}
	return out, nil
}

// sameHost returns an error naming the first result whose host
// fingerprint differs from the first one's.
func sameHost(rs []*result) error {
	for _, r := range rs[1:] {
		if d := rs[0].Host.diff(r.Host); len(d) > 0 {
			return fmt.Errorf("results come from different hosts (%s); refusing to compare", strings.Join(d, "; "))
		}
	}
	return nil
}

// series groups the timed runs' metric values by workload and metric.
func series(rs []*result) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range rs {
		if r.Trace != 0 {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// cmdSpread prints, per workload and end-to-end metric, the run count,
// the median and the interquartile range as a share of the median.
func cmdSpread(args []string, stdout, stderr io.Writer) int {
	rs, err := loadResults(args)
	if err == nil {
		err = sameHost(rs)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench spread:", err)
		return 2
	}
	s := series(rs)
	fmt.Fprintf(stdout, "%-16s %-16s %4s %14s %8s\n", "workload", "metric", "n", "median", "spread")
	for _, wl := range sortedKeys(s) {
		for _, m := range endToEnd {
			xs := s[wl][m.name]
			sp, _ := spread(xs)
			fmt.Fprintf(stdout, "%-16s %-16s %4d %14.6g %8.4f\n", wl, m.name, len(xs), median(xs), sp)
		}
	}
	return 0
}

// cmdCompare prints, per workload and end-to-end metric, the medians
// of two sets of runs and their ratio. It refuses results measured on
// different host fingerprints.
func cmdCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "perfbench compare: need two result files or directories")
		return 2
	}
	a, err := loadResults(args[:1])
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return 2
	}
	b, err := loadResults(args[1:])
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return 2
	}
	if err := sameHost(append(append([]*result{}, a...), b...)); err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return 2
	}
	sa, sb := series(a), series(b)
	fmt.Fprintf(stdout, "%-16s %-16s %14s %14s %8s %8s\n", "workload", "metric", "median A", "median B", "B/A", "spread A")
	for _, wl := range sortedKeys(sa) {
		if sb[wl] == nil {
			continue
		}
		for _, m := range endToEnd {
			ma, mb := median(sa[wl][m.name]), median(sb[wl][m.name])
			sp, _ := spread(sa[wl][m.name])
			fmt.Fprintf(stdout, "%-16s %-16s %14.6g %14.6g %8.4f %8.4f\n", wl, m.name, ma, mb, mb/ma, sp)
		}
	}
	return 0
}
