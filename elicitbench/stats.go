package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// quantile is the nearest-rank q-quantile of xs (0 when xs is empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// mean is the arithmetic mean of xs (0 when xs is empty).
func mean(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return ratio(t, float64(len(xs)))
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// hostStamp identifies the host and the code a result was measured on.
type hostStamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is the git commit when the tree is a git checkout, and
	// otherwise "tree:" plus a SHA-256 prefix over the tree's Go sources
	// and go.mod files, which identifies the code just as well.
	Commit string `json:"commit"`
}

func stamp(workload string, seed int64, root string) hostStamp {
	return hostStamp{
		Workload:   workload,
		Seed:       seed,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(root),
	}
}

func commit(root string) string {
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(head))
		if !strings.HasPrefix(ref, "ref: ") {
			return ref
		}
		if id, err := os.ReadFile(filepath.Join(root, ".git", strings.TrimPrefix(ref, "ref: "))); err == nil {
			return strings.TrimSpace(string(id))
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		h.Write([]byte(rel + "\x00"))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}
