// Package partition assigns gates to logical processes.
//
// Partitioning and mapping is one of the five performance factors the paper
// identifies, and its Section III surveys the heuristics implemented here:
// random assignment (the control), Levendel's strings, Smith's fanin
// cones, level-based concurrency-preserving assignment, Kernighan–Lin and
// Fiduccia–Mattheyses min-cut bisection borrowed from physical design, and
// simulated annealing. All of them balance the same two competing
// objectives the paper states: uniform computational load across
// processors and minimum communication volume between them.
//
// Computational load is not the gate count: it is the evaluation frequency,
// which depends on the vectors (the paper's "pre-simulation" point). Every
// algorithm therefore accepts per-gate weights; WeightsUniform gives the
// naive structural balance and WeightsFromProfile converts a sequential
// pre-simulation run into measured activity weights.
package partition

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/circuit"
)

// Partition assigns every gate of a circuit to one of Blocks logical
// processes.
type Partition struct {
	Blocks int
	// Assign maps GateID -> block index in [0, Blocks).
	Assign []int

	// blockGates caches the per-block gate lists: engines ask for them at
	// every Run, and the partition is immutable once built. Guarded by a
	// Once so a partition shared across concurrent runs stays race-free.
	bgOnce     sync.Once
	blockGates [][]circuit.GateID
}

// Validate checks the partition covers the circuit.
func (p *Partition) Validate(c *circuit.Circuit) error {
	if p.Blocks < 1 {
		return fmt.Errorf("partition: %d blocks", p.Blocks)
	}
	if len(p.Assign) != c.NumGates() {
		return fmt.Errorf("partition: assignment covers %d of %d gates", len(p.Assign), c.NumGates())
	}
	for g, b := range p.Assign {
		if b < 0 || b >= p.Blocks {
			return fmt.Errorf("partition: gate %d assigned to invalid block %d", g, b)
		}
	}
	return nil
}

// BlockGates returns the gates of each block, in ascending gate order. The
// result is computed once and cached; callers must treat it as read-only.
func (p *Partition) BlockGates() [][]circuit.GateID {
	p.bgOnce.Do(func() {
		counts := make([]int, p.Blocks)
		for _, b := range p.Assign {
			counts[b]++
		}
		out := make([][]circuit.GateID, p.Blocks)
		for b, n := range counts {
			out[b] = make([]circuit.GateID, 0, n)
		}
		for g, b := range p.Assign {
			out[b] = append(out[b], circuit.GateID(g))
		}
		p.blockGates = out
	})
	return p.blockGates
}

// Audience answers which blocks must see an event on a gate: the gate's
// owner first, then every other block owning one of its consumers (each
// keeps a ghost copy of the net), in fanout order. The asynchronous
// engines route stimulus changes and checkpoint events with it. Lists
// are computed on first request and kept back to back in one flat array;
// not safe for concurrent use.
type Audience struct {
	c     *circuit.Circuit
	owner []int
	span  [][2]int32 // per gate: its list is dst[span[0]:span[1]]; zero until asked
	dst   []int
	seen  []bool // per block, all false between calls
}

// Audience returns the event-routing view of the partition over c.
func (p *Partition) Audience(c *circuit.Circuit) *Audience {
	return &Audience{
		c:     c,
		owner: p.Assign,
		span:  make([][2]int32, len(c.Gates)),
		seen:  make([]bool, p.Blocks),
	}
}

// Of returns the blocks that must see an event on gate g. The result is
// read-only and stays valid for the Audience's lifetime.
func (a *Audience) Of(g circuit.GateID) []int {
	if sp := a.span[g]; sp[1] > 0 {
		return a.dst[sp[0]:sp[1]]
	}
	start := len(a.dst)
	a.seen[a.owner[g]] = true
	a.dst = append(a.dst, a.owner[g])
	for _, fo := range a.c.Fanout[g] {
		if b := a.owner[fo]; !a.seen[b] {
			a.seen[b] = true
			a.dst = append(a.dst, b)
		}
	}
	for _, b := range a.dst[start:] {
		a.seen[b] = false
	}
	a.span[g] = [2]int32{int32(start), int32(len(a.dst))}
	return a.dst[start:]
}

// Group folds the partition's LPs into contiguous, load-balanced shard
// groups for distributed execution, returning an LP -> shard map in
// [0, shards). Contiguity makes the layout a pure function of the
// partition, which distributed recovery relies on: a restarted attempt
// reproduces the same shard layout and so can restore per-shard
// checkpoint restrictions written by its predecessor. Weights are
// per-gate loads (nil for uniform); an LP's load is the sum over its
// gates. Every shard receives at least one LP (shards is clamped to
// [1, Blocks]).
func (p *Partition) Group(shards int, w Weights) []int {
	n := p.Blocks
	if shards < 1 {
		shards = 1
	}
	if shards > n {
		shards = n
	}
	load := make([]float64, n)
	for g, b := range p.Assign {
		x := 1.0
		if w != nil {
			x = w[g]
		}
		load[b] += x
	}
	var total float64
	for _, x := range load {
		total += x
	}
	target := total / float64(shards)
	out := make([]int, n)
	s := 0
	var acc float64
	for lp := 0; lp < n; lp++ {
		// Advance when the current shard met its load target, or when the
		// remaining shards would otherwise outnumber the remaining LPs.
		if s < shards-1 && (acc >= target || shards-s > n-lp) {
			s++
			acc = 0
		}
		out[lp] = s
		acc += load[lp]
	}
	return out
}

// CutLinks counts directed cross-block communication links: pairs
// (net, consumer block) with the consumer in a different block than the
// driver. This is the per-event message count, the communication-volume
// objective the heuristics minimize.
func (p *Partition) CutLinks(c *circuit.Circuit) int {
	cut := 0
	seen := newBlockSet(p.Blocks)
	for g := range c.Gates {
		cut += netCutLinks(c, p.Assign, circuit.GateID(g), seen)
	}
	return cut
}

// Weights holds per-gate computational load estimates.
type Weights []float64

// WeightsUniform weights every gate equally (structural balance).
func WeightsUniform(c *circuit.Circuit) Weights {
	w := make(Weights, c.NumGates())
	for i := range w {
		w[i] = 1
	}
	return w
}

// WeightsFromProfile converts per-gate evaluation counts from a
// pre-simulation run into weights. Gates that never evaluated get a small
// floor weight so they still contribute to balance decisions.
func WeightsFromProfile(evals []uint64) Weights {
	w := make(Weights, len(evals))
	for i, n := range evals {
		w[i] = float64(n) + 0.1
	}
	return w
}

// BlockLoads sums the weights per block.
func (p *Partition) BlockLoads(w Weights) []float64 {
	loads := make([]float64, p.Blocks)
	for g, b := range p.Assign {
		loads[b] += w[g]
	}
	return loads
}

// Imbalance is max block load divided by mean block load (1.0 = perfect).
func (p *Partition) Imbalance(w Weights) float64 {
	loads := p.BlockLoads(w)
	var sum, max float64
	for _, l := range loads {
		sum += l
		if l > max {
			max = l
		}
	}
	if sum == 0 {
		return 1
	}
	return max / (sum / float64(p.Blocks))
}

// Quality bundles the two competing metrics for reporting.
type Quality struct {
	CutLinks  int
	Imbalance float64
}

// Evaluate computes the quality of a partition.
func (p *Partition) Evaluate(c *circuit.Circuit, w Weights) Quality {
	return Quality{CutLinks: p.CutLinks(c), Imbalance: p.Imbalance(w)}
}

// Method names a partitioning algorithm for configuration and reporting.
type Method uint8

// The implemented algorithms.
const (
	MethodRandom Method = iota
	MethodContiguous
	MethodStrings
	MethodCones
	MethodLevels
	MethodKL
	MethodFM
	MethodAnneal
	MethodMultilevel
	MethodConeSplit
)

// String names the method.
func (m Method) String() string {
	switch m {
	case MethodRandom:
		return "random"
	case MethodContiguous:
		return "contiguous"
	case MethodStrings:
		return "strings"
	case MethodCones:
		return "cones"
	case MethodLevels:
		return "levels"
	case MethodKL:
		return "kl"
	case MethodFM:
		return "fm"
	case MethodAnneal:
		return "anneal"
	case MethodMultilevel:
		return "multilevel"
	case MethodConeSplit:
		return "cone-split"
	}
	return fmt.Sprintf("Method(%d)", uint8(m))
}

// ParseMethod converts a method name to a Method.
func ParseMethod(s string) (Method, error) {
	for m := MethodRandom; m <= MethodConeSplit; m++ {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("partition: unknown method %q", s)
}

// Options parameterize New.
type Options struct {
	// Weights are the per-gate load estimates; nil means uniform.
	Weights Weights
	// Seed feeds the randomized algorithms.
	Seed int64
	// AnnealMoves bounds simulated annealing's move budget; 0 uses a
	// default proportional to circuit size.
	AnnealMoves int
}

// New runs the selected partitioning algorithm, producing k blocks.
func New(m Method, c *circuit.Circuit, k int, opts Options) (*Partition, error) {
	if k < 1 {
		return nil, fmt.Errorf("partition: k must be >= 1")
	}
	if opts.Weights == nil {
		opts.Weights = WeightsUniform(c)
	}
	if len(opts.Weights) != c.NumGates() {
		return nil, fmt.Errorf("partition: %d weights for %d gates", len(opts.Weights), c.NumGates())
	}
	var p *Partition
	var err error
	switch m {
	case MethodRandom:
		p = Random(c, k, opts.Seed)
	case MethodContiguous:
		p = Contiguous(c, k, opts.Weights)
	case MethodStrings:
		p = Strings(c, k, opts.Weights)
	case MethodCones:
		p = Cones(c, k, opts.Weights)
	case MethodLevels:
		p, err = Levels(c, k, opts.Weights)
	case MethodKL:
		p = KL(c, k, opts.Weights, opts.Seed)
	case MethodFM:
		p = FM(c, k, opts.Weights, opts.Seed)
	case MethodAnneal:
		p = Anneal(c, k, opts.Weights, opts.Seed, opts.AnnealMoves)
	case MethodMultilevel:
		p = Multilevel(c, k, opts.Weights, opts.Seed)
	case MethodConeSplit:
		p, _ = ConeSplit(c, k, opts.Weights)
	default:
		return nil, fmt.Errorf("partition: unknown method %v", m)
	}
	if err != nil {
		return nil, err
	}
	if err := p.Validate(c); err != nil {
		return nil, err
	}
	return p, nil
}

// Random assigns gates to blocks uniformly at random — the paper's
// implicit baseline that every heuristic must beat on cut size.
func Random(c *circuit.Circuit, k int, seed int64) *Partition {
	rng := rand.New(rand.NewSource(seed))
	p := &Partition{Blocks: k, Assign: make([]int, c.NumGates())}
	for g := range p.Assign {
		p.Assign[g] = rng.Intn(k)
	}
	return p
}

// Contiguous deals gates to blocks in ID order, cutting at weight
// boundaries so loads balance. Gate IDs correlate with creation order and
// therefore with structural locality, making this a surprisingly strong
// cheap heuristic for generated circuits.
func Contiguous(c *circuit.Circuit, k int, w Weights) *Partition {
	p := &Partition{Blocks: k, Assign: make([]int, c.NumGates())}
	var total float64
	for _, x := range w {
		total += x
	}
	target := total / float64(k)
	block := 0
	var acc float64
	for g := range p.Assign {
		if acc >= target && block < k-1 {
			block++
			acc = 0
		}
		p.Assign[g] = block
		acc += w[g]
	}
	return p
}

// lightest returns the index of the least-loaded block.
func lightest(loads []float64) int {
	best := 0
	for i, l := range loads {
		if l < loads[best] {
			best = i
		}
	}
	return best
}
