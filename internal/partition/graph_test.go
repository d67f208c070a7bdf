package partition

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
)

// TestGraphMatchesOwnerTests: on random combinational and sequential
// circuits under random owner maps of 1–8 blocks, the LP graph is what
// testing the owner of every fanout gives. Each gate's reader row lists
// the other blocks that read it once each, in fanout first-encounter
// order, the order events on it go out in. Each link's lookahead is the
// smallest delay among the writer's gates that the reader reads. Both
// link lists are ascending, and the readers add up to CutLinks.
func TestGraphMatchesOwnerTests(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		cfg := gen.RandomConfig{Gates: 50 + rng.Intn(300), Inputs: 1 + rng.Intn(12), Outputs: 1 + rng.Intn(6),
			Locality: rng.Float64(), Seed: rng.Int63(), FFRatio: 0.15, Delays: gen.Fine(1+circuit.Tick(rng.Intn(5)), rng.Int63())}
		mk := gen.RandomDAG
		if trial%2 == 1 {
			mk = gen.RandomSeq
		}
		c, err := mk(cfg)
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + rng.Intn(8)
		p := &Partition{Blocks: k, Assign: make([]int, len(c.Kinds))}
		for g := range p.Assign {
			p.Assign[g] = rng.Intn(k)
		}
		// The first request may come from several runs at once.
		graphs := make([]*Graph, 4)
		var wg sync.WaitGroup
		for i := range graphs {
			wg.Add(1)
			go func() { defer wg.Done(); graphs[i] = p.Graph(c) }()
		}
		wg.Wait()
		gr := graphs[0]
		for _, other := range graphs[1:] {
			if other != gr {
				t.Fatalf("trial %d: concurrent first requests compiled two graphs", trial)
			}
		}
		la := map[[2]int]circuit.Tick{}
		readers := 0
		for g := range c.Kinds {
			id, own := circuit.GateID(g), p.Assign[g]
			var want []int32
			for _, out := range c.FanoutAdj.Row(id) {
				if b := p.Assign[out]; b != own && !slices.Contains(want, int32(b)) {
					want = append(want, int32(b))
				}
			}
			if got := gr.Readers(id); !slices.Equal(got, want) {
				t.Fatalf("trial %d, %d blocks, gate %d: readers %v, owner tests select %v", trial, k, g, got, want)
			}
			readers += len(want)
			for _, b := range want {
				key := [2]int{own, int(b)}
				if d, ok := la[key]; !ok || c.Delays[g] < d {
					la[key] = c.Delays[g]
				}
			}
		}
		if cut := p.CutLinks(c); readers != cut {
			t.Fatalf("trial %d: %d readers in all, CutLinks %d", trial, readers, cut)
		}
		var outs, ins int
		for b := 0; b < k; b++ {
			for dir, ls := range [][]Link{gr.Out[b], gr.In[b]} {
				if !slices.IsSortedFunc(ls, func(x, y Link) int { return x.Peer - y.Peer }) {
					t.Fatalf("trial %d, block %d: links %v not ascending", trial, b, ls)
				}
				for _, l := range ls {
					key := [2]int{b, l.Peer}
					if dir == 1 {
						key = [2]int{l.Peer, b}
					}
					if d, ok := la[key]; !ok || l.Lookahead != d {
						t.Fatalf("trial %d: link %d→%d has lookahead %d, owner tests give %d (linked %v)", trial, key[0], key[1], l.Lookahead, d, ok)
					}
				}
			}
			outs, ins = outs+len(gr.Out[b]), ins+len(gr.In[b])
		}
		if outs != len(la) || ins != len(la) {
			t.Fatalf("trial %d: %d out-links and %d in-links, owner tests find %d", trial, outs, ins, len(la))
		}
	}
}
