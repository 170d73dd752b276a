package mem

import (
	"fmt"
	"math/bits"
	"testing"
)

const benchBlock = 4096

// refBlocks returns two lazy one-block payloads, each one ref extent on
// its own chunk: copying from them scatters shared references.
func refBlocks() [2]*Payload {
	var src [2]*Payload
	for k := range src {
		src[k] = NewPayload(benchBlock, false)
		src[k].WriteAt(pattern(uint64(k)+1, benchBlock), 0)
	}
	return src
}

// BenchmarkScatterFill scatters 4 KiB ref blocks into a payload
// fragmented to N extents: every block slot holds a reference to one of
// two chunks, so no neighbors merge and each scatter replaces one extent
// in an N-extent list — the tier-buffer splice of a KV-cache fill.
func BenchmarkScatterFill(b *testing.B) {
	for _, n := range []int{16, 1024, 8192} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			src := refBlocks()
			dst := NewPayload(int64(n)*benchBlock, false)
			for k := 0; k < n; k++ {
				PayloadCopy(dst, int64(k)*benchBlock, src[k%2], 0, benchBlock)
			}
			if len(dst.extents) != n {
				b.Fatalf("fragmented to %d extents, want %d", len(dst.extents), n)
			}
			gen := lcg(uint64(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				slot := int64(gen.next() % uint64(n))
				PayloadCopy(dst, slot*benchBlock, src[i%2], 0, benchBlock)
			}
			b.StopTimer()
			dst.Release()
			src[0].Release()
			src[1].Release()
		})
	}
}

// TestExtentGrowthAmortized fills a fresh payload extent by extent — N
// ref blocks scattered left to right, each splitting the zero tail — and
// checks that the extent slice grows O(log N) times, not once per insert.
func TestExtentGrowthAmortized(t *testing.T) {
	const n = 1024
	src := refBlocks()
	defer src[0].Release()
	defer src[1].Release()
	size := int64(2*n) * benchBlock
	allocs := testing.AllocsPerRun(5, func() {
		// Built directly, not from the header pool, so the extent slice
		// starts at capacity 1 on every run.
		p := &Payload{size: size}
		p.extents = append(p.extents, extent{n: size, kind: extZero})
		for k := 0; k < n; k++ {
			PayloadCopy(p, int64(2*k)*benchBlock, src[k%2], 0, benchBlock)
		}
		for _, e := range p.extents {
			if e.kind == extRef {
				e.ch.release()
			}
		}
	})
	// Two allocations build the payload; doubling from capacity 1 to the
	// 2N+1 extents the fill ends with takes about log2(2N) growths.
	ceiling := float64(2 + bits.Len(2*n) + 2)
	if allocs > ceiling {
		t.Fatalf("%d inserts took %.0f allocations, ceiling %.0f", n, allocs, ceiling)
	}
}
