package main

import (
	"math"
	"os"
	"testing"
)

func TestFoldTopCannedListing(t *testing.T) {
	text, err := os.ReadFile("testdata/pprof-top.txt")
	if err != nil {
		t.Fatal(err)
	}
	got, err := foldTop(string(text))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"dataplane": 0.40, "runtime": 0.20, "engine": 0.15, "devices": 0.075,
		"drivers": 0.06, "tier": 0.04, "app": 0.025, "other": 0.05,
	}
	var sum float64
	for _, l := range layers {
		if math.Abs(got[l]-want[l]) > 1e-9 {
			t.Errorf("%s share = %v, want %v", l, got[l], want[l])
		}
		sum += got[l]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
}

func TestFoldTopRejectsOutputWithoutTable(t *testing.T) {
	if _, err := foldTop("File: camperf\nType: cpu\n"); err == nil {
		t.Fatal("want an error for a listing without a sample table")
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"runtime.mallocgc":                                          "runtime",
		"camsim/internal/mem.(*Payload).Bytes":                      "camsim/internal/mem",
		"camsim/internal/sim.(*ring[go.shape.int]).push":            "camsim/internal/sim",
		"internal/runtime/maps.(*Map).getWithKeySmall":              "internal/runtime/maps",
		"camsim/internal/sortx.radixSort":                           "camsim/internal/sortx",
		"slices.SortFunc[go.shape.[]camsim/internal/sim.Time,uint]": "slices",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParseDuration(t *testing.T) {
	for s, want := range map[string]float64{"0": 0, "10ms": 0.01, "1.50s": 1.5, "250us": 250e-6, "2min": 120} {
		got, err := parseDuration(s)
		if err != nil || math.Abs(got-want) > 1e-12 {
			t.Errorf("parseDuration(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
}
