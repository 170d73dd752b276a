package main

import (
	"bufio"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// layers are the shares host.<layer>_frac reports, in print order.
var layers = []string{"engine", "devices", "drivers", "dataplane", "app", "tier", "runtime", "other"}

// layerOfPkg maps this module's packages to the layer they belong to.
var layerOfPkg = map[string]string{
	"camsim/internal/sim":      "engine",
	"camsim/internal/ssd":      "devices",
	"camsim/internal/nvme":     "devices",
	"camsim/internal/pcie":     "devices",
	"camsim/internal/fault":    "devices",
	"camsim/internal/cam":      "drivers",
	"camsim/internal/bam":      "drivers",
	"camsim/internal/spdk":     "drivers",
	"camsim/internal/oskernel": "drivers",
	"camsim/internal/gds":      "drivers",
	"camsim/internal/xfer":     "drivers",
	"camsim/internal/cpustat":  "drivers",
	"camsim/internal/mem":      "dataplane",
	"camsim/internal/gpu":      "dataplane",
	"camsim/internal/hostmem":  "dataplane",
	"camsim/internal/sortx":    "app",
	"camsim/internal/kvcache":  "tier",
}

// funcPackage returns the package path of a symbol as pprof prints it,
// e.g. "camsim/internal/mem" for "camsim/internal/mem.(*Payload).Bytes".
func funcPackage(fn string) string {
	prefix := fn
	if i := strings.IndexAny(prefix, "(["); i >= 0 {
		prefix = prefix[:i]
	}
	slash := strings.LastIndex(prefix, "/")
	if dot := strings.Index(prefix[slash+1:], "."); dot >= 0 {
		return prefix[:slash+1+dot]
	}
	return prefix
}

func layerOf(fn string) string {
	pkg := funcPackage(fn)
	if l, ok := layerOfPkg[pkg]; ok {
		return l
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// parseDuration reads a pprof sample value such as "1.23s" or "850ms".
func parseDuration(s string) (float64, error) {
	if s == "0" {
		return 0, nil // pprof prints a zero without a unit
	}
	units := []struct {
		suffix string
		scale  float64
	}{{"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6}, {"ms", 1e-3}, {"min", 60}, {"hrs", 3600}, {"s", 1}}
	for _, u := range units {
		if v, ok := strings.CutSuffix(s, u.suffix); ok {
			f, err := strconv.ParseFloat(v, 64)
			return f * u.scale, err
		}
	}
	return 0, fmt.Errorf("no time unit in %q", s)
}

// foldTop folds the text of `go tool pprof -top` into per-layer shares of
// flat (self) time.
func foldTop(text string) (map[string]float64, error) {
	sc := bufio.NewScanner(strings.NewReader(text))
	var total float64
	inTable := false
	self := map[string]float64{}
	for sc.Scan() {
		line := sc.Text()
		f := strings.Fields(line)
		if !inTable {
			// "Showing nodes accounting for 2.31s, 99.14% of 2.33s total"
			if len(f) >= 3 && f[0] == "Showing" && f[len(f)-1] == "total" {
				t, err := parseDuration(f[len(f)-2])
				if err != nil {
					return nil, fmt.Errorf("pprof header %q: %v", line, err)
				}
				total = t
			}
			inTable = len(f) >= 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		flat, err := parseDuration(f[0])
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %v", line, err)
		}
		// The symbol may contain spaces ("(inline)", generic shapes).
		self[layerOf(f[5])] += flat
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !inTable || total <= 0 {
		return nil, fmt.Errorf("pprof output has no sample table")
	}
	shares := map[string]float64{}
	for _, l := range layers {
		shares[l] = self[l] / total
	}
	return shares, nil
}

// foldProfiles merges CPU profiles with `go tool pprof` and folds them.
func foldProfiles(paths []string) (map[string]float64, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("no CPU profiles to fold")
	}
	args := append([]string{"tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-edgefraction=0"}, paths...)
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v", err)
	}
	return foldTop(string(out))
}
