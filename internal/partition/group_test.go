package partition

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
)

// Group is the LP -> shard layout distributed runs are built on; it
// must be total, contiguous, deterministic, and leave no shard empty —
// recovery restarts depend on a restarted attempt reproducing it.
func TestGroupLayout(t *testing.T) {
	c, err := gen.ByName("ripple8", gen.Unit, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for _, lps := range []int{1, 3, 7, 16} {
		p, err := New(MethodContiguous, c, lps, Options{})
		if err != nil {
			t.Fatal(err)
		}
		w := make(Weights, len(c.Kinds))
		for g := range w {
			w[g] = 0.25 + rng.Float64()
		}
		for _, shards := range []int{1, 2, 3, lps, lps + 5} {
			for _, weights := range []Weights{nil, w} {
				m := p.Group(shards, weights)
				if len(m) != p.Blocks {
					t.Fatalf("lps=%d shards=%d: map covers %d LPs", lps, shards, len(m))
				}
				want := shards
				if want > p.Blocks {
					want = p.Blocks
				}
				seen := make([]bool, want)
				prev := 0
				for lp, s := range m {
					if s < 0 || s >= want {
						t.Fatalf("lps=%d shards=%d: lp %d mapped to shard %d of %d", lps, shards, lp, s, want)
					}
					if s < prev || s > prev+1 {
						t.Fatalf("lps=%d shards=%d: mapping not contiguous at lp %d (%d after %d)", lps, shards, lp, s, prev)
					}
					prev = s
					seen[s] = true
				}
				for s, ok := range seen {
					if !ok {
						t.Errorf("lps=%d shards=%d: shard %d empty", lps, shards, s)
					}
				}
				again := p.Group(shards, weights)
				for lp := range m {
					if m[lp] != again[lp] {
						t.Fatalf("lps=%d shards=%d: nondeterministic at lp %d", lps, shards, lp)
					}
				}
			}
		}
	}
}
