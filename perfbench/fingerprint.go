package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// gcPercent is the one GC setting every workload runs under: the Go
// default. Under GOGC=400 (the repository's scale-benchmark setting)
// the peak RSS of one megaswarm-1k run swung between 250 and 420 MiB
// from run to run on the same seed; at 100 it stays within a few
// percent.
const gcPercent = 100

// hostFingerprint identifies the machine and runtime a result was
// measured on. Two results compare only when their fingerprints are
// equal: a speed-up measured across hosts or GC settings is not a
// speed-up.
type hostFingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       int    `json:"gogc"`
	GoVersion  string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// codeFingerprint identifies the code a result was measured on. It is
// recorded with every result but never blocks a comparison: comparing
// two commits is the point.
type codeFingerprint struct {
	Commit string `json:"commit"`
	Source string `json:"source"`
}

func currentHost() hostFingerprint {
	return hostFingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       gcPercent,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// cpuModel reads the processor name the kernel reports, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// diff lists the fields on which two host fingerprints disagree.
func (h hostFingerprint) diff(o hostFingerprint) []string {
	var out []string
	add := func(name string, a, b any) {
		if a != b {
			out = append(out, fmt.Sprintf("%s: %v vs %v", name, a, b))
		}
	}
	add("cpu", h.CPU, o.CPU)
	add("nproc", h.NProc, o.NProc)
	add("gomaxprocs", h.GOMAXPROCS, o.GOMAXPROCS)
	add("gogc", h.GOGC, o.GOGC)
	add("go", h.GoVersion, o.GoVersion)
	add("goos", h.GOOS, o.GOOS)
	add("goarch", h.GOARCH, o.GOARCH)
	return out
}

// errNotModule reports a benchmark started outside a checkout of the
// repository: nothing to build or measure.
var errNotModule = errors.New("go.mod of the measured module not found in the working directory")

// currentCode hashes the module's Go sources, go.mod and the golden
// digest file under root (skipping dot-directories such as the build
// directory), and reads the git commit when root is a git checkout.
func currentCode(root string) (codeFingerprint, error) {
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return codeFingerprint{}, errNotModule
	}
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum" ||
			strings.HasSuffix(path, goldenFile) {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return codeFingerprint{}, fmt.Errorf("hash sources: %w", err)
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return codeFingerprint{}, fmt.Errorf("hash sources: %w", err)
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
	}
	return codeFingerprint{Commit: gitCommit(root), Source: hex.EncodeToString(h.Sum(nil))[:16]}, nil
}

// gitCommit resolves HEAD without running git, or returns "none" when
// root is not a git checkout (the benchmark usually runs from an
// exported tree).
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return shortHash(ref)
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return shortHash(strings.TrimSpace(string(b)))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
				return shortHash(hash)
			}
		}
	}
	return "none"
}

func shortHash(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}
