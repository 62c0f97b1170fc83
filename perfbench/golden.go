package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/scenario"
	"repro/internal/trace"
)

// goldenFile pins every corpus scenario's trace digest at its
// committed seed. The benchmark only reads it.
const goldenFile = "internal/scenario/testdata/golden_digests.json"

// traceDigest renders a traced run of sp exactly as the scenario
// package's golden tests do and returns its SHA-256.
func traceDigest(sp scenario.Spec) (string, error) {
	lg := trace.New(0)
	res, err := scenario.Run(&sp, scenario.Options{Trace: lg})
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := lg.Render(&buf); err != nil {
		return "", err
	}
	fmt.Fprintf(&buf, "kernel %+v net %+v ended %v done %d/%d\n",
		res.Kernel, res.Net, res.EndedAt, res.Done, res.Total)
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// goldenCheck compares every corpus scenario's trace digest with the
// committed file and returns the mismatches (none means the check
// passed). The pass is untimed and costs about a minute, so its
// verdict is kept under cacheDir keyed by the source fingerprint: the
// same sources always give the same digests.
func goldenCheck(root, cacheDir string, code codeFingerprint) ([]string, error) {
	cache := filepath.Join(cacheDir, "golden-"+code.Source+".json")
	if b, err := os.ReadFile(cache); err == nil {
		var bad []string
		if err := json.Unmarshal(b, &bad); err == nil {
			return bad, nil
		}
	}
	blob, err := os.ReadFile(filepath.Join(root, goldenFile))
	if err != nil {
		return nil, fmt.Errorf("golden digests: %w", err)
	}
	var want map[string]string
	if err := json.Unmarshal(blob, &want); err != nil {
		return nil, fmt.Errorf("golden digests: %w", err)
	}
	corpus := scenario.Corpus()
	got := make([]string, len(corpus))
	errs := make([]error, len(corpus))
	// Longest scenarios first, so the pool drains evenly.
	order := make([]int, len(corpus))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return strings.HasPrefix(corpus[order[a]].Name, "snapshot-") && !strings.HasPrefix(corpus[order[b]].Name, "snapshot-")
	})
	forEachParallel(len(order), func(j int) {
		i := order[j]
		got[i], errs[i] = traceDigest(corpus[i])
	})
	bad := []string{}
	seen := map[string]bool{}
	for i, sp := range corpus {
		seen[sp.Name] = true
		switch {
		case errs[i] != nil:
			bad = append(bad, fmt.Sprintf("%s: %v", sp.Name, errs[i]))
		case want[sp.Name] == "":
			bad = append(bad, fmt.Sprintf("%s: no recorded digest", sp.Name))
		case got[i] != want[sp.Name]:
			bad = append(bad, fmt.Sprintf("%s: digest %s, recorded %s", sp.Name, got[i][:16], want[sp.Name][:16]))
		}
	}
	for name := range want {
		if !seen[name] {
			bad = append(bad, fmt.Sprintf("%s: recorded but not in the corpus", name))
		}
	}
	sort.Strings(bad)
	if b, err := json.Marshal(bad); err == nil {
		if err := os.MkdirAll(cacheDir, 0o755); err == nil {
			_ = os.WriteFile(cache, b, 0o644) // a lost cache only costs a re-check
		}
	}
	return bad, nil
}
