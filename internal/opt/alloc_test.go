package opt

import (
	"testing"

	"repro/internal/gen"
)

// parentOptimizeBytes is what Optimize allocated per call on seq4000
// when its work list was a 56-byte circuit.Gate record per gate and its
// result was copied through circuit.New (go1.24, linux/amd64).
const parentOptimizeBytes = 1_088_890

// TestOptimizeAllocation pins the optimizer's allocation over flat
// arrays: Optimize on seq4000 allocates at least 40 % fewer bytes than
// the record-based optimizer did.
func TestOptimizeAllocation(t *testing.T) {
	c, err := gen.ByName("seq4000", gen.Unit, 1)
	if err != nil {
		t.Fatal(err)
	}
	alloc := testing.Benchmark(func(b *testing.B) {
		for range b.N {
			if _, err := Optimize(c, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}).AllocedBytesPerOp()
	t.Logf("Optimize(seq4000) allocates %d B, %.0f %% of the record-based optimizer's %d B",
		alloc, 100*float64(alloc)/parentOptimizeBytes, parentOptimizeBytes)
	if float64(alloc) > 0.6*parentOptimizeBytes {
		t.Fatalf("Optimize allocates %d B, more than 60 %% of %d B", alloc, parentOptimizeBytes)
	}
}
