package main

import (
	"math"
	"slices"
)

// refS is the host time the reference loop takes at the benchmark's
// reference speed: its median on the 2-vCPU Xeon VM the benchmark was
// tuned on.
const refS = 0.045

// refLoop is a fixed CPU workload that uses no camsim code: fill a slice
// from a xorshift stream, sort it, then insert into and look up in a map.
// The machine slows it the way it slows the simulator (shared caches,
// memory bandwidth, clock), while no change to camsim can move it.
func refLoop() uint64 {
	x := uint64(12345)
	v := make([]uint64, 1<<18)
	for i := range v {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v[i] = x
	}
	slices.Sort(v)
	m := make(map[uint64]uint64)
	for i := 0; i < 1<<16; i++ {
		m[v[i*4]] += uint64(i)
	}
	var s uint64
	for i := 0; i < 1<<17; i++ {
		s += m[v[i*2]]
	}
	return s
}

// refSink keeps refLoop's result live.
var refSink uint64

// machineSpeed times the reference loop, best of three, and returns how
// much faster than the reference speed the machine runs right now. On a
// shared virtual machine the speed drifts by 10% or more over minutes, in
// CPU time as well as wall time; host times multiplied by this factor
// compare across runs taken at different moments.
func machineSpeed() float64 {
	best := math.Inf(1)
	for i := 0; i < 3; i++ {
		c := cpuSeconds()
		refSink += refLoop()
		best = min(best, cpuSeconds()-c)
	}
	return refS / best
}
