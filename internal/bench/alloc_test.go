package bench_test

import (
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/gen"
)

// TestReadAllocatesWhatItKeeps pins the reader to set-up's budget: one
// ReadString of a generated seq4000 allocates at most 1.6 times the live
// heap of the circuit it returns, so the parse keeps no record of a line
// past its walk.
func TestReadAllocatesWhatItKeeps(t *testing.T) {
	c, err := gen.ByName("seq4000", gen.Unit, 1)
	if err != nil {
		t.Fatal(err)
	}
	text, err := bench.WriteString(c, "seq4000")
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	kept, err := bench.ReadString(text)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(kept)
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	alloc := testing.Benchmark(func(b *testing.B) {
		for range b.N {
			if _, err := bench.ReadString(text); err != nil {
				b.Fatal(err)
			}
		}
	}).AllocedBytesPerOp()
	t.Logf("ReadString(seq4000) allocates %d B for a circuit that keeps %d B (%.2fx)", alloc, live, float64(alloc)/float64(live))
	if live <= 0 || float64(alloc) > 1.6*float64(live) {
		t.Fatalf("ReadString allocates %d B for %d B kept, more than 1.6x", alloc, live)
	}
}
