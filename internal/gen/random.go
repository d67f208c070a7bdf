package gen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/circuit"
)

// RandomConfig parameterizes RandomDAG and RandomSeq.
type RandomConfig struct {
	// Gates is the number of logic gates to create (primary inputs and
	// output markers are extra).
	Gates int
	// Inputs is the number of primary inputs (>= 1).
	Inputs int
	// Outputs is the number of primary outputs (>= 1); sink gates are
	// preferred as outputs so little logic is dead.
	Outputs int
	// MaxFanin bounds multi-input gate fanin (>= 2; default 4).
	MaxFanin int
	// Locality in [0,1] biases fanin selection toward recent layers; 0 is
	// uniform over all earlier gates, 1 draws almost exclusively from the
	// previous layer. Structure is a primary performance factor in the
	// paper, and this knob varies it continuously.
	Locality float64
	// FFRatio (RandomSeq only) is the fraction of gates that become D
	// flip-flops, giving the circuit sequential feedback.
	FFRatio float64
	Seed    int64
	Delays  DelaySpec
}

// withDefaults validates and fills derived fields.
func (cfg RandomConfig) withDefaults() (RandomConfig, error) {
	if cfg.Gates < 1 {
		return cfg, fmt.Errorf("gen: random circuit needs at least 1 gate")
	}
	if cfg.Inputs < 1 {
		return cfg, fmt.Errorf("gen: random circuit needs at least 1 input")
	}
	if cfg.Outputs < 1 {
		return cfg, fmt.Errorf("gen: random circuit needs at least 1 output")
	}
	if cfg.MaxFanin == 0 {
		cfg.MaxFanin = 4
	}
	if cfg.MaxFanin < 2 {
		return cfg, fmt.Errorf("gen: MaxFanin must be >= 2")
	}
	if cfg.Locality < 0 || cfg.Locality > 1 {
		return cfg, fmt.Errorf("gen: Locality %f outside [0,1]", cfg.Locality)
	}
	if cfg.FFRatio < 0 || cfg.FFRatio > 1 {
		return cfg, fmt.Errorf("gen: FFRatio %f outside [0,1]", cfg.FFRatio)
	}
	return cfg, nil
}

// combKinds is the gate-kind palette for random logic, roughly weighted
// like synthesized netlists (NAND/NOR-heavy, occasional XOR).
var combKinds = []circuit.Kind{
	circuit.Nand, circuit.Nand, circuit.Nand,
	circuit.Nor, circuit.Nor,
	circuit.And, circuit.Or,
	circuit.Xor, circuit.Xnor,
	circuit.Not, circuit.Buf,
}

// RandomDAG builds a random layered combinational circuit.
func RandomDAG(cfg RandomConfig) (*circuit.Circuit, error) {
	cfg.FFRatio = 0
	return randomCircuit(cfg, false)
}

// RandomSeq builds a random layered circuit in which a fraction of the
// gates are D flip-flops clocked by a dedicated "clk" input, with feedback
// allowed through the flip-flops. FFRatio defaults to 0.1 when zero.
func RandomSeq(cfg RandomConfig) (*circuit.Circuit, error) {
	if cfg.FFRatio == 0 {
		cfg.FFRatio = 0.1
	}
	return randomCircuit(cfg, true)
}

func randomCircuit(cfg RandomConfig, seq bool) (*circuit.Circuit, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := newGenBuilder(cfg.Delays)

	var clk circuit.GateID
	if seq {
		clk = b.Input("clk")
	}
	inputs := make([]circuit.GateID, cfg.Inputs)
	for i := range inputs {
		inputs[i] = b.Input(fmt.Sprintf("in%d", i))
	}

	// layerOf[i] is the layer of the i-th created logic gate; candidates
	// accumulates (gate, layer) pairs eligible as fanin sources.
	type node struct {
		id    circuit.GateID
		layer int
	}
	candidates := make([]node, 0, cfg.Gates+cfg.Inputs)
	for _, in := range inputs {
		candidates = append(candidates, node{in, 0})
	}

	// pick selects a fanin source from gates at layers < layer, biased by
	// locality toward the most recent layers.
	pick := func(layer int) circuit.GateID {
		// Eligible prefix: all candidates with layer < the target layer.
		// Candidates are appended in layer order, so binary scan suffices.
		hi := len(candidates)
		for hi > 0 && candidates[hi-1].layer >= layer {
			hi--
		}
		if hi == 0 {
			hi = 1 // always at least one input
		}
		if cfg.Locality == 0 {
			return candidates[rng.Intn(hi)].id
		}
		// Exponential recency bias: sample a depth-from-the-end with
		// geometric-ish decay controlled by locality.
		span := float64(hi)
		back := span * math.Pow(rng.Float64(), 1/(1.001-cfg.Locality))
		idx := hi - 1 - int(back)
		if idx < 0 {
			idx = 0
		}
		return candidates[idx].id
	}

	// Distribute gates across floor(sqrt(Gates)) layers, which is at
	// least one and at most Gates, as evenly as possible.
	layers := int(math.Sqrt(float64(cfg.Gates)))
	perLayer := cfg.Gates / layers
	extra := cfg.Gates % layers

	type ffPatch struct {
		id circuit.GateID
	}
	var ffs []ffPatch
	var allGates []circuit.GateID

	created := 0
	for layer := 1; layer <= layers; layer++ {
		n := perLayer
		if layer <= extra {
			n++
		}
		for k := 0; k < n; k++ {
			name := fmt.Sprintf("g%d", created)
			created++
			if seq && rng.Float64() < cfg.FFRatio {
				// Placeholder fanin; the data input is patched after all
				// gates exist so feedback can reach forward in the DAG.
				id := b.gate(circuit.DFF, name, clk, clk)
				ffs = append(ffs, ffPatch{id})
				candidates = append(candidates, node{id, layer})
				allGates = append(allGates, id)
				continue
			}
			kind := combKinds[rng.Intn(len(combKinds))]
			var fanin []circuit.GateID
			if kind == circuit.Not || kind == circuit.Buf {
				fanin = []circuit.GateID{pick(layer)}
			} else {
				nin := 2 + rng.Intn(cfg.MaxFanin-1)
				fanin = make([]circuit.GateID, nin)
				for i := range fanin {
					fanin[i] = pick(layer)
				}
			}
			id := b.gate(kind, name, fanin...)
			candidates = append(candidates, node{id, layer})
			allGates = append(allGates, id)
		}
	}

	// Patch flip-flop data inputs: uniform over every logic gate (feedback
	// through the register is what makes the circuit sequential).
	for _, ff := range ffs {
		d := allGates[rng.Intn(len(allGates))]
		b.SetFanin(ff.id, []circuit.GateID{d, clk})
	}

	// Outputs: prefer sink gates (nothing reads them) so little of the
	// generated logic is dead; fill up from random gates if needed.
	sinks := sinksOf(b, allGates)
	outs := make([]circuit.GateID, 0, cfg.Outputs)
	outs = append(outs, sinks...)
	for len(outs) < cfg.Outputs {
		outs = append(outs, allGates[rng.Intn(len(allGates))])
	}
	outs = outs[:cfg.Outputs]
	for i, g := range outs {
		b.Output(fmt.Sprintf("out%d", i), g)
	}
	return b.Build()
}

// sinksOf returns the gates in ids that no gate currently consumes.
func sinksOf(b *genBuilder, ids []circuit.GateID) []circuit.GateID {
	consumed := make(map[circuit.GateID]bool)
	for _, id := range ids {
		for _, f := range b.FaninOf(id) {
			consumed[f] = true
		}
	}
	var sinks []circuit.GateID
	for _, id := range ids {
		if !consumed[id] {
			sinks = append(sinks, id)
		}
	}
	return sinks
}
