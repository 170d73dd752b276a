package mem

import (
	"bytes"
	"testing"
)

// checkPayloads asserts the extent-list invariants every mutation must
// leave behind, over a set of payloads that together hold every reference
// to their chunks: each list is gap-free and covers [0, Size()) with
// nonempty extents, no adjacent pair is mergeable (the canonical form the
// windowed merge relies on), and every chunk's refs equals the number of
// ref extents pointing at it.
func checkPayloads(t *testing.T, ps []*Payload) {
	t.Helper()
	refs := make(map[*Chunk]int32)
	for pi, p := range ps {
		var at int64
		for k, e := range p.extents {
			if e.off != at || e.n <= 0 {
				t.Fatalf("payload %d extent %d: [%d,+%d) after coverage reached %d", pi, k, e.off, e.n, at)
			}
			at += e.n
			switch e.kind {
			case extMat:
				if int64(len(p.data)) < p.size {
					t.Fatalf("payload %d extent %d: materialized without backing", pi, k)
				}
			case extRef:
				if e.chOff < 0 || e.chOff+e.n > int64(len(e.ch.data)) {
					t.Fatalf("payload %d extent %d: chunk range [%d,+%d) outside %d bytes", pi, k, e.chOff, e.n, len(e.ch.data))
				}
				refs[e.ch]++
			}
			if k == 0 {
				continue
			}
			if a := p.extents[k-1]; a.kind == e.kind &&
				(e.kind != extRef || (a.ch == e.ch && a.chOff+a.n == e.chOff)) {
				t.Fatalf("payload %d: extents %d and %d are mergeable (kind %d)", pi, k-1, k, e.kind)
			}
		}
		if at != p.size {
			t.Fatalf("payload %d: extents cover %d of %d bytes", pi, at, p.size)
		}
	}
	for ch, n := range refs {
		if ch.refs != n {
			t.Fatalf("chunk referenced by %d extents holds %d refs", n, ch.refs)
		}
	}
}

// opReader hands out op-sequence bytes, reading zeros once exhausted.
type opReader []byte

func (r *opReader) next() int64 {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int64(b)
}

// span draws a range [off, off+n) inside size bytes. Offsets and lengths
// come on a byte, 64-byte or 512-byte grid, so ranges often start or end
// exactly on an earlier op's boundary, where neighbors become mergeable.
func (r *opReader) span(size int64) (off, n int64) {
	g := [...]int64{1, 64, 512}[r.next()%3]
	off = min((r.next()<<8|r.next())%(size/g+1)*g, size)
	n = min((r.next()<<8|r.next())%(size/g+1)*g, size-off)
	return off, n
}

// runPayloadOps plays an op sequence decoded from ops against three
// payloads and a byte oracle per payload, checking content and the
// extent invariants after every op. Each payload's mode (lazy or eager)
// comes from the sequence, so copies cross modes too.
func runPayloadOps(t *testing.T, ops []byte) {
	r := opReader(ops)
	var ps [3]*Payload
	var oracle [3][]byte
	fresh := func(k int) {
		size := 1 + (r.next()<<8|r.next())%2048
		ps[k] = NewPayload(size, r.next()%4 == 0)
		oracle[k] = make([]byte, size)
	}
	for k := range ps {
		fresh(k)
	}
	defer func() {
		for _, p := range ps {
			p.Release()
		}
	}()
	var seed uint64
	for step := 0; step < 256 && len(r) > 0; step++ {
		k := int(r.next() % 3)
		p, o := ps[k], oracle[k]
		switch r.next() % 6 {
		case 0: // WriteAt: zeros, a pattern, or a pattern with a zero run
			off, n := r.span(p.Size())
			seed++
			src := pattern(seed, int(n))
			switch r.next() % 3 {
			case 0:
				clear(src)
			case 1:
				clear(src[n/4 : n/2])
			}
			p.WriteAt(src, off)
			copy(o[off:], src)
		case 1:
			off, n := r.span(p.Size())
			p.SetZero(off, n)
			clear(o[off : off+n])
		case 2: // PayloadCopy, including overlapping self-copies
			// The range moves in up to three granules, as a DMA engine
			// moves it, so pieces of one chunk land side by side and merge.
			sk := int(r.next() % 3)
			src := ps[sk]
			dOff, n := r.span(p.Size())
			sOff, m := r.span(src.Size())
			n = min(n, m)
			g := n/(1+r.next()%3) + 1
			for a := int64(0); a < n; a += g {
				l := min(g, n-a)
				PayloadCopy(p, dOff+a, src, sOff+a, l)
				copy(o[dOff+a:dOff+a+l], oracle[sk][sOff+a:sOff+a+l])
			}
		case 3:
			off, n := r.span(p.Size())
			got := pattern(seed+1000, int(n)) // dirty destination
			p.ReadAt(got, off)
			if !bytes.Equal(got, o[off:off+n]) {
				t.Fatalf("step %d: ReadAt(payload %d, [%d,+%d)) differs from oracle", step, k, off, n)
			}
		case 4: // Bytes, then a write through the returned slice
			b := p.Bytes()
			if !bytes.Equal(b, o) {
				t.Fatalf("step %d: Bytes(payload %d) differs from oracle", step, k)
			}
			i := r.next() % p.Size()
			b[i] = byte(r.next())
			o[i] = b[i]
		case 5: // release; peers keep their shared chunks
			p.Release()
			fresh(k)
		}
		checkPayloads(t, ps[:])
	}
	for k, p := range ps {
		got := make([]byte, p.Size())
		p.ReadAt(got, 0)
		if !bytes.Equal(got, oracle[k]) {
			t.Fatalf("payload %d: final content differs from oracle", k)
		}
	}
}

// FuzzPayloadOps drives random WriteAt / SetZero / PayloadCopy / ReadAt /
// Bytes / Release sequences against a byte oracle in lazy and eager modes.
func FuzzPayloadOps(f *testing.F) {
	gen := lcg(99)
	for i := 0; i < 8; i++ {
		f.Add(pattern(gen.next(), 256))
	}
	f.Fuzz(runPayloadOps)
}

// TestPayloadOpsRandom is the property test behind the fuzzer: many long
// deterministic random sequences, run on every go test.
func TestPayloadOpsRandom(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		runPayloadOps(t, pattern(seed, 1200))
	}
}
