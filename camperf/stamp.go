package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// stamp identifies the machine and code a result was measured on.
// Results from different machines do not compare; Tree fingerprints the
// sources even where no git metadata exists.
type stamp struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Tree       string `json:"tree"`
}

func (s stamp) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s tree=%s",
		s.CPU, s.NProc, s.GOMAXPROCS, s.Go, s.Commit, s.Tree)
}

// machineDiffs lists the machine fields two stamps disagree on.
func machineDiffs(a, b stamp) []string {
	var d []string
	add := func(field, x, y string) {
		if x != y {
			d = append(d, fmt.Sprintf("%s %q vs %q", field, x, y))
		}
	}
	add("cpu", a.CPU, b.CPU)
	add("nproc", fmt.Sprint(a.NProc), fmt.Sprint(b.NProc))
	add("gomaxprocs", fmt.Sprint(a.GOMAXPROCS), fmt.Sprint(b.GOMAXPROCS))
	add("go", a.Go, b.Go)
	return d
}

func takeStamp(root string) stamp {
	return stamp{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     gitCommit(root),
		Tree:       treeHash(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from the checkout's .git directory without running
// git; "none" outside a git checkout.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "none"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "none"
}

// treeHash fingerprints the Go sources and module files under root,
// skipping hidden directories (build output, VCS metadata).
func treeHash(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if n := d.Name(); !d.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			return "unknown"
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00", rel)
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "unknown"
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// compareResults prints two saved results side by side. It flags results
// taken on different machines first: their host-time differences mix the
// machine change with the code change.
func compareResults(w io.Writer, pathA, pathB string) error {
	var a, b runRecord
	for _, x := range []struct {
		path string
		rec  *runRecord
	}{{pathA, &a}, {pathB, &b}} {
		data, err := os.ReadFile(x.path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, x.rec); err != nil {
			return fmt.Errorf("%s: %v", x.path, err)
		}
	}
	fmt.Fprintf(w, "A: %s\nB: %s\n", a.Stamp, b.Stamp)
	if d := machineDiffs(a.Stamp, b.Stamp); len(d) > 0 {
		fmt.Fprintf(w, "WARNING: different machines (%s); host-time deltas are not a code comparison\n", strings.Join(d, "; "))
	}
	if a.Workload != b.Workload || a.Seed != b.Seed {
		fmt.Fprintf(w, "WARNING: different inputs (%s seed %d vs %s seed %d)\n", a.Workload, a.Seed, b.Workload, b.Seed)
	}
	fmt.Fprintf(w, "%-24s %14s %14s %9s  %s\n", "metric", "A median", "B median", "delta", "verdict")
	for _, def := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		x, okA := a.Metrics[def.Name]
		y, okB := b.Metrics[def.Name]
		if !okA || !okB {
			continue
		}
		delta := "-"
		if x.Median != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(y.Median-x.Median)/x.Median)
		}
		// A change smaller than either side's own quartile spread is noise.
		verdict := "same"
		switch {
		case x.Median == y.Median:
		case y.Q1 > x.Q3 || y.Q3 < x.Q1:
			verdict = "changed"
		default:
			verdict = "within spread"
		}
		fmt.Fprintf(w, "%-24s %14.6g %14.6g %9s  %s\n", def.Name, x.Median, y.Median, delta, verdict)
	}
	return nil
}
