package partition

import (
	"slices"

	"repro/internal/circuit"
)

// Graph is a partition's LP graph, the paper's §II model: each block is a
// logical process, and block a links to block b when b reads a gate that
// a owns. Every engine that routes events between LPs reads it.
type Graph struct {
	// The readers of gate g are readIdx[readOff[g]:readOff[g+1]].
	readOff, readIdx []int32
	// Out[b] lists block b's links to the blocks that read its gates, and
	// In[b] its links from the blocks whose gates it reads, each in
	// ascending block order.
	Out, In [][]Link
}

// Link is one directed edge of the LP graph. Peer is the block at the
// other end, and Lookahead the smallest delay among the writer's gates
// that the reader reads: no event crosses the link sooner after its cause.
type Link struct {
	Peer      int
	Lookahead circuit.Tick
}

// Readers lists the blocks other than gate g's owner that read g, once
// each, in fanout first-encounter order: the LPs that keep a ghost copy of
// net g and must see its changes. The result is read-only.
func (gr *Graph) Readers(g circuit.GateID) []int32 {
	return gr.readIdx[gr.readOff[g]:gr.readOff[g+1]]
}

// Graph returns the partition's LP graph over c, the circuit it
// partitions. Like BlockGates it is compiled on first request and cached;
// callers must treat it as read-only.
func (p *Partition) Graph(c *circuit.Circuit) *Graph {
	p.graphOnce.Do(func() { p.graph = newGraph(c, p) })
	return p.graph
}

// newGraph compiles the reader rows in gate order, then each block's
// out-links from the rows of its own gates.
func newGraph(c *circuit.Circuit, p *Partition) *Graph {
	gr := &Graph{readOff: make([]int32, len(c.Kinds)+1), Out: make([][]Link, p.Blocks), In: make([][]Link, p.Blocks)}
	seen := newBlockSet(p.Blocks)
	for g := range c.Kinds {
		gr.readIdx = appendReaders(gr.readIdx, c, p.Assign, circuit.GateID(g), seen)
		gr.readOff[g+1] = int32(len(gr.readIdx))
	}
	la := make([]circuit.Tick, p.Blocks)
	var peers []int
	for a, gates := range p.BlockGates() {
		seen.gen++
		peers = peers[:0]
		for _, g := range gates {
			for _, b := range gr.Readers(g) {
				if seen.stamp[b] != seen.gen {
					seen.stamp[b] = seen.gen
					peers = append(peers, int(b))
					la[b] = c.Delays[g]
				}
				la[b] = min(la[b], c.Delays[g])
			}
		}
		slices.Sort(peers)
		for _, b := range peers {
			gr.Out[a] = append(gr.Out[a], Link{b, la[b]})
			gr.In[b] = append(gr.In[b], Link{a, la[b]})
		}
	}
	return gr
}

// appendReaders appends to dst the readers of net src under assign: the
// distinct consumer blocks other than the driver's own, in fanout order.
// Fanout rows are already deduplicated, so a consumer reading src through
// several pins contributes its block once. seen is scratch.
func appendReaders(dst []int32, c *circuit.Circuit, assign []int, src circuit.GateID, seen *blockSet) []int32 {
	seen.gen++
	for _, r := range c.FanoutAdj.Row(src) {
		if b := assign[r]; b != assign[src] && seen.stamp[b] != seen.gen {
			seen.stamp[b] = seen.gen
			dst = append(dst, int32(b))
		}
	}
	return dst
}
