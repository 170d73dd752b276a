package harness

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"camsim/internal/fault"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from this run (make golden)")

// TestGoldenQuick pins the quick suite byte for byte: each golden file is
// the stdout of `cambench -exp all -quick` (plus the listed -faults spec),
// every Result.String() followed by its Footer. Any change to a simulated
// result, a rendered table or a note fails it; an intended change is
// recorded with `make golden` and reviewed as a diff of the golden files.
func TestGoldenQuick(t *testing.T) {
	defer fault.SetDefault(nil)
	for _, tc := range []struct{ file, faults string }{
		{"quick.txt", ""},
		{"quick-faults.txt", "7:1e-4"},
	} {
		t.Run(tc.file, func(t *testing.T) {
			plan, err := fault.ParseSpec(tc.faults)
			if err != nil {
				t.Fatal(err)
			}
			fault.SetDefault(plan)
			var b strings.Builder
			for _, r := range RunAll(All(), RunConfig{Quick: true}, runtime.GOMAXPROCS(0), nil) {
				b.WriteString(r.String())
				b.WriteString(r.Footer())
			}
			got := b.String()
			path := filepath.Join("testdata", "golden", tc.file)
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (record it with `make golden`)", err)
			}
			if got != string(want) {
				t.Errorf("output differs from %s (rerun with -update to record an intended change):\n%s",
					path, firstDiff(got, string(want)))
			}
		})
	}
}

// firstDiff describes the first line where got and want disagree.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n  got:  %s\n  want: %s", i+1, gl, wl)
		}
	}
	return "(no line differs)"
}
