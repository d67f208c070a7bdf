package partition

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/simtest"
)

// parentFMCuts holds the cut links FM produced at the commit before the
// bucket rewrite (2c996a9, binary heap with lazy deletion), per corpus
// entry: [k in 2, 4, 8][seed 1, 2, 3]. propN is propertyCorpus()[N].
var parentFMCuts = []struct {
	name string
	cut  [3][3]int
}{
	{"ripple8-unit", [3][3]int{{3, 5, 6}, {12, 10, 15}, {17, 22, 22}}},
	{"ripple8-fine", [3][3]int{{3, 5, 6}, {12, 10, 15}, {17, 22, 22}}},
	{"cla12-unit", [3][3]int{{23, 8, 21}, {40, 29, 54}, {69, 62, 66}}},
	{"mul6-fine", [3][3]int{{26, 13, 32}, {54, 46, 61}, {87, 87, 84}}},
	{"dag300-unit", [3][3]int{{99, 92, 86}, {208, 199, 197}, {319, 309, 304}}},
	{"dag200-fine", [3][3]int{{54, 55, 54}, {123, 131, 126}, {213, 213, 211}}},
	{"lfsr8-unit", [3][3]int{{4, 4, 8}, {10, 14, 16}, {24, 24, 26}}},
	{"counter6-fine", [3][3]int{{3, 2, 5}, {8, 9, 10}, {15, 15, 15}}},
	{"seq250-unit", [3][3]int{{69, 70, 68}, {154, 146, 149}, {246, 242, 238}}},
	{"prop0", [3][3]int{{83, 83, 83}, {180, 185, 183}, {281, 285, 281}}},
	{"prop1", [3][3]int{{66, 71, 73}, {157, 168, 156}, {255, 254, 246}}},
	{"prop2", [3][3]int{{117, 116, 119}, {254, 260, 261}, {406, 400, 403}}},
	{"prop3", [3][3]int{{125, 131, 129}, {266, 282, 287}, {415, 418, 421}}},
	{"prop4", [3][3]int{{177, 189, 173}, {394, 411, 370}, {578, 588, 581}}},
	{"prop5", [3][3]int{{174, 157, 163}, {368, 351, 344}, {551, 556, 524}}},
	{"prop6", [3][3]int{{238, 231, 232}, {520, 522, 508}, {788, 789, 774}}},
	{"prop7", [3][3]int{{208, 205, 215}, {453, 454, 461}, {699, 688, 710}}},
	{"prop8", [3][3]int{{278, 283, 285}, {612, 623, 625}, {926, 960, 931}}},
	{"prop9", [3][3]int{{255, 241, 245}, {550, 524, 525}, {823, 783, 801}}},
	{"prop10", [3][3]int{{319, 307, 321}, {708, 695, 697}, {1092, 1067, 1060}}},
	{"prop11", [3][3]int{{275, 288, 284}, {623, 627, 621}, {926, 964, 944}}}}

// qualityCorpus is simtest.StandardCorpus(1) followed by the property
// corpus, named as in parentFMCuts.
func qualityCorpus(t *testing.T) map[string]*circuit.Circuit {
	t.Helper()
	out := map[string]*circuit.Circuit{}
	std, err := simtest.StandardCorpus(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range std {
		out[e.Name] = e.C
	}
	for i, c := range propertyCorpus(t) {
		out[fmt.Sprintf("prop%d", i)] = c
	}
	return out
}

// TestFMQualityNoWorse holds the rewritten FM to the cut links of the one
// it replaced. Tie order changed, so single runs differ both ways — a
// seed's cut moves by a tenth on the 30-gate entries, where one link is
// already more than 5 % — and the gate is on what a seed does not decide:
// per (entry, k), summed over seeds 1–3, no more than 5 % (and one link
// per seed) above the parent, and over the whole table not above it. The
// documented imbalance bounds are the generator corpus's, so they are
// checked on its entries, for KL and Multilevel too.
func TestFMQualityNoWorse(t *testing.T) {
	corpus := qualityCorpus(t)
	var sumOld, sumNew int
	for _, row := range parentFMCuts {
		c := corpus[row.name]
		if c == nil {
			t.Fatalf("no corpus entry %q", row.name)
		}
		w := WeightsUniform(c)
		for ki, k := range []int{2, 4, 8} {
			var rowOld, rowNew int
			for si := range row.cut[ki] {
				p := FM(c, k, w, int64(si+1))
				rowOld += row.cut[ki][si]
				rowNew += p.CutLinks(c)
				if !strings.HasPrefix(row.name, "prop") {
					continue
				}
				for _, m := range []Method{MethodFM, MethodKL, MethodMultilevel} {
					q, err := New(m, c, k, Options{Seed: int64(si + 1)})
					if err != nil {
						t.Fatal(err)
					}
					if im := q.Imbalance(w); im > imbalanceBound[m] {
						t.Errorf("%s %v k=%d seed %d: imbalance %.3f over the documented %.2f", row.name, m, k, si+1, im, imbalanceBound[m])
					}
				}
			}
			if limit := rowOld + rowOld/20 + len(row.cut[ki]); rowNew > limit {
				t.Errorf("%s k=%d: %d cut links over seeds 1-3, parent %d (limit %d)", row.name, k, rowNew, rowOld, limit)
			}
			sumOld, sumNew = sumOld+rowOld, sumNew+rowNew
		}
	}
	t.Logf("cut links over the table: %d, parent %d (%+.1f%%)", sumNew, sumOld, 100*float64(sumNew-sumOld)/float64(sumOld))
	if sumNew > sumOld {
		t.Errorf("cut links over the table: %d, parent %d", sumNew, sumOld)
	}
}

// TestPartitionersAreDeterministic: a method, a circuit, a block count and
// a seed name one assignment, whatever the scheduler or the runtime's map
// iteration order do. (KL used to fill its adjacency by ranging over a
// map, so its cut moved from run to run.)
func TestPartitionersAreDeterministic(t *testing.T) {
	dag, err := gen.RandomDAG(gen.RandomConfig{Gates: 700, Inputs: 18, Outputs: 9, Seed: 3, Locality: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	sq, err := gen.RandomSeq(gen.RandomConfig{Gates: 500, Inputs: 12, Outputs: 8, Seed: 4, Locality: 0.6, FFRatio: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	check := func(t *testing.T) {
		for ci, c := range []*circuit.Circuit{dag, sq} {
			for m := MethodRandom; m <= MethodConeSplit; m++ {
				for _, k := range []int{2, 5, 8} {
					var first []int
					for rep := 0; rep < 5; rep++ {
						p, err := New(m, c, k, Options{Seed: 7, AnnealMoves: 3000})
						if err != nil {
							t.Fatalf("circuit %d %v k=%d: %v", ci, m, k, err)
						}
						if rep == 0 {
							first = p.Assign
						} else if !reflect.DeepEqual(p.Assign, first) {
							t.Fatalf("circuit %d %v k=%d: repeat %d assigns differently (cut %d, first %d)",
								ci, m, k, rep, p.CutLinks(c), (&Partition{Blocks: k, Assign: first}).CutLinks(c))
						}
					}
				}
			}
		}
	}
	t.Run("default", check)
	t.Run("GOMAXPROCS=1", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		check(t)
	})
}

// TestFMAllocations pins the arena: an 8-way FM of a 2000-gate DAG — seven
// bisections, some fifty passes — allocates its scratch once (what is left
// is that, the append growth of the first bisection's pin list, and one
// permutation per bisection).
func TestFMAllocations(t *testing.T) {
	c, err := gen.ByName("dag2000", gen.Unit, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := WeightsUniform(c)
	if got := testing.AllocsPerRun(5, func() { FM(c, 8, w, 1) }); got > 100 {
		t.Fatalf("FM(dag2000, 8) allocates %.0f objects per call, ceiling 100", got)
	}
}
