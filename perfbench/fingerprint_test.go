package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestHostDiff(t *testing.T) {
	a := currentHost()
	if d := a.diff(a); len(d) != 0 {
		t.Errorf("a host differs from itself: %v", d)
	}
	b := a
	b.GOGC, b.NProc = a.GOGC*2, a.NProc+1
	d := a.diff(b)
	if len(d) != 2 || !strings.HasPrefix(d[0], "nproc") || !strings.HasPrefix(d[1], "gogc") {
		t.Errorf("diff = %v, want nproc and gogc", d)
	}
}

func writeFile(t *testing.T, path, body string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCurrentCode(t *testing.T) {
	dir := t.TempDir()
	if _, err := currentCode(dir); !errors.Is(err, errNotModule) {
		t.Fatalf("no go.mod: err = %v, want errNotModule", err)
	}
	writeFile(t, filepath.Join(dir, "go.mod"), "module x\n")
	writeFile(t, filepath.Join(dir, "a", "a.go"), "package a\n")
	c1, err := currentCode(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Commit != "none" || len(c1.Source) != 16 {
		t.Errorf("code = %+v", c1)
	}
	// Build output and other files do not change the fingerprint.
	writeFile(t, filepath.Join(dir, ".bench_build", "x.go"), "package x\n")
	writeFile(t, filepath.Join(dir, "README.md"), "notes\n")
	if c2, _ := currentCode(dir); c2 != c1 {
		t.Errorf("fingerprint moved with non-source files: %+v vs %+v", c2, c1)
	}
	writeFile(t, filepath.Join(dir, "a", "a.go"), "package a // changed\n")
	if c3, _ := currentCode(dir); c3.Source == c1.Source {
		t.Error("fingerprint did not move with a source change")
	}
}

func TestGitCommit(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, ".git", "HEAD"), "ref: refs/heads/main\n")
	writeFile(t, filepath.Join(dir, ".git", "refs", "heads", "main"), "0123456789abcdef0123\n")
	if got := gitCommit(dir); got != "0123456789ab" {
		t.Errorf("gitCommit = %q", got)
	}
	writeFile(t, filepath.Join(dir, ".git", "HEAD"), "ref: refs/heads/packed\n")
	writeFile(t, filepath.Join(dir, ".git", "packed-refs"), "# pack-refs\nfedcba9876543210ffff refs/heads/packed\n")
	if got := gitCommit(dir); got != "fedcba987654" {
		t.Errorf("gitCommit from packed-refs = %q", got)
	}
}

func saveTestResult(t *testing.T, path string, host hostFingerprint, wall float64) {
	t.Helper()
	r := &result{Workload: "w", Trace: 0, Host: host, Metrics: map[string]metric{}}
	r.set("wall_s", "s", wall)
	if err := r.save(path); err != nil {
		t.Fatal(err)
	}
}

func TestCompareRefusesOtherHosts(t *testing.T) {
	dir := t.TempDir()
	host := currentHost()
	other := host
	other.GOGC = host.GOGC * 2
	a := filepath.Join(dir, "a", "w-trace0-seed1-1.json")
	b := filepath.Join(dir, "b", "w-trace0-seed1-2.json")
	c := filepath.Join(dir, "c", "w-trace0-seed1-3.json")
	saveTestResult(t, a, host, 10)
	saveTestResult(t, b, host, 12)
	saveTestResult(t, c, other, 12)

	var out, errOut bytes.Buffer
	if code := run([]string{"compare", filepath.Dir(a), filepath.Dir(b)}, &out, &errOut); code != 0 {
		t.Fatalf("compare on one host: exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "1.2000") {
		t.Errorf("compare output lacks the 1.2 ratio:\n%s", out.String())
	}
	out.Reset()
	errOut.Reset()
	if code := run([]string{"compare", filepath.Dir(a), filepath.Dir(c)}, &out, &errOut); code == 0 {
		t.Fatalf("compare across hosts succeeded:\n%s", out.String())
	}
	if !strings.Contains(errOut.String(), "gogc") {
		t.Errorf("refusal does not name the differing field: %s", errOut.String())
	}
	if code := run([]string{"spread", filepath.Dir(a), filepath.Dir(c)}, &out, &errOut); code == 0 {
		t.Error("spread across hosts succeeded")
	}
}
