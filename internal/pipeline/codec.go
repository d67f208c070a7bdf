package pipeline

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/partition"
	"repro/internal/sim/ckpt"
	"repro/internal/vectors"
)

// The wire form of a Prepared run, all little-endian and fixed-width so
// every length can be checked against the bytes that remain before
// anything is allocated from it:
//
//	magic
//	fingerprint   u16 length + ckpt.Fingerprint of the circuit
//	counts        u32 gates, pins, inputs, outputs
//	kinds         gates × u8
//	delays        gates × u64
//	fanin offsets (gates+1) × u32, then fanin indices pins × u32 (CSR, pin order)
//	inputs, outputs   u32 gate ids, declaration order
//	names         gates × (u16 length + bytes)
//	stimulus      u64 end, u32 changes, changes × (u64 time, u32 input, u8 value)
//	until         u64
//	partition     u32 blocks, then (blocks > 0) gates × u32 assignment, i32 cone count, u8 sweep
//	shard map     u32 entries (0 or blocks), entries × u32 LP → shard
//	checksum      u64 fnv64a of everything before it
//
// Fanout is not shipped: it is a function of fanin and is rebuilt by the
// same code that builds it for a parsed netlist.
const magic = "parsim-run/v1\n"

// ErrCorrupt is the sentinel every Decode failure wraps: a payload that is
// truncated, bit-flipped, self-inconsistent, or sealed for another circuit.
var ErrCorrupt = errors.New("pipeline: corrupt prepared run")

// Encode serializes the scalar run: netlist, stimulus, horizon, partition
// and shard map. Wide stimulus has no wire form (logic.Word has no codec).
func (p *Prepared) Encode() ([]byte, error) {
	if p.WideStim != nil {
		return nil, fmt.Errorf("pipeline: a wide run has no wire form")
	}
	c := p.Circuit
	n := len(c.Gates)
	b := append(make([]byte, 0, 64+n*32+len(p.Stim.Changes)*13), magic...)
	fp := ckpt.Fingerprint(c)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(fp)))
	b = append(b, fp...)
	for _, v := range []int{n, len(c.FaninAdj.Idx), len(c.Inputs), len(c.Outputs)} {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	for _, k := range c.Kinds {
		b = append(b, byte(k))
	}
	for _, d := range c.Delays {
		b = binary.LittleEndian.AppendUint64(b, uint64(d))
	}
	for _, off := range c.FaninAdj.Off {
		b = binary.LittleEndian.AppendUint32(b, uint32(off))
	}
	for _, ids := range [][]circuit.GateID{c.FaninAdj.Idx, c.Inputs, c.Outputs} {
		for _, g := range ids {
			b = binary.LittleEndian.AppendUint32(b, uint32(g))
		}
	}
	for i := range c.Gates {
		name := c.Gates[i].Name
		if len(name) > math.MaxUint16 {
			return nil, fmt.Errorf("pipeline: gate name of %d bytes does not fit the wire form", len(name))
		}
		b = binary.LittleEndian.AppendUint16(b, uint16(len(name)))
		b = append(b, name...)
	}

	b = binary.LittleEndian.AppendUint64(b, uint64(p.Stim.End))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(p.Stim.Changes)))
	for _, ch := range p.Stim.Changes {
		b = binary.LittleEndian.AppendUint64(b, uint64(ch.Time))
		b = binary.LittleEndian.AppendUint32(b, uint32(ch.Input))
		b = append(b, byte(ch.Value))
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(p.Until))

	blocks := 0
	if p.Part != nil {
		blocks = p.Part.Blocks
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(blocks))
	if blocks > 0 {
		for _, lp := range p.Part.Assign {
			b = binary.LittleEndian.AppendUint32(b, uint32(lp))
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(int32(p.ConeCount)))
		b = append(b, boolByte(p.Sweep))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(p.ShardOf)))
	for _, s := range p.ShardOf {
		b = binary.LittleEndian.AppendUint32(b, uint32(s))
	}

	h := fnv.New64a()
	h.Write(b)
	return binary.LittleEndian.AppendUint64(b, h.Sum64()), nil
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// reader consumes a payload front to back. The first short read sticks: it
// sets err, and every later read returns zeros, so a decoder checks once.
type reader struct {
	b   []byte
	err error
}

// take returns the next n bytes, or nil once the payload has run short.
func (r *reader) take(n uint64) []byte {
	if r.err != nil || n > uint64(len(r.b)) {
		if r.err == nil {
			r.err = fmt.Errorf("%w: %d bytes wanted, %d left", ErrCorrupt, n, len(r.b))
		}
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

// uint reads a little-endian unsigned integer of the given width in bytes.
func (r *reader) uint(width int) (v uint64) {
	b := r.take(uint64(width))
	for i := len(b) - 1; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

// i32s reads n little-endian words into a fresh slice of T. The bytes are
// claimed before the slice is made, so n is bounded by the payload.
func i32s[T ~int32 | ~int](r *reader, n uint32) []T {
	raw := r.take(4 * uint64(n))
	if raw == nil {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = T(int32(binary.LittleEndian.Uint32(raw[4*i:])))
	}
	return out
}

// Decode parses and verifies an encoded run. The payload is input from
// outside the process: every failure is an error wrapping ErrCorrupt,
// never a panic, and nothing is allocated from a length the remaining
// bytes do not cover. The circuit is rebuilt over the decoded arrays
// (circuit.FromFlat adopts them), checked like a parsed netlist, and must
// reproduce the fingerprint the sender sealed.
func Decode(payload []byte) (*Prepared, error) {
	if len(payload) < len(magic)+8 || string(payload[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: not a %q payload", ErrCorrupt, magic[:len(magic)-1])
	}
	body := payload[:len(payload)-8]
	h := fnv.New64a()
	h.Write(body)
	if got, want := h.Sum64(), binary.LittleEndian.Uint64(payload[len(body):]); got != want {
		return nil, fmt.Errorf("%w: checksum %016x, sealed %016x (truncated or bit-flipped)", ErrCorrupt, got, want)
	}
	r := &reader{b: body[len(magic):]}

	fp := string(r.take(uint64(r.uint(2))))
	gates, pins, nIn, nOut := uint32(r.uint(4)), uint32(r.uint(4)), uint32(r.uint(4)), uint32(r.uint(4))
	rawKinds := r.take(uint64(gates))
	rawDelays := r.take(8 * uint64(gates))
	off := i32s[int32](r, gates+1)
	fanin := circuit.Adj{Off: off, Idx: i32s[circuit.GateID](r, pins)}
	inputs := i32s[circuit.GateID](r, nIn)
	outputs := i32s[circuit.GateID](r, nOut)
	if r.err != nil {
		return nil, r.err
	}
	kinds := make([]circuit.Kind, gates)
	delays := make([]circuit.Tick, gates)
	names := make([]string, gates)
	for g := range kinds {
		kinds[g] = circuit.Kind(rawKinds[g])
		delays[g] = circuit.Tick(binary.LittleEndian.Uint64(rawDelays[8*g:]))
		names[g] = string(r.take(uint64(r.uint(2))))
	}

	stim := &vectors.Stimulus{End: circuit.Tick(r.uint(8))}
	if raw := r.take(13 * r.uint(4)); raw != nil {
		stim.Changes = make([]vectors.Change, len(raw)/13)
		for i := range stim.Changes {
			ch := raw[13*i:]
			stim.Changes[i] = vectors.Change{
				Time:  circuit.Tick(binary.LittleEndian.Uint64(ch)),
				Input: circuit.GateID(int32(binary.LittleEndian.Uint32(ch[8:]))),
				Value: logic.Value(ch[12]),
			}
		}
	}
	p := &Prepared{Stim: stim, Until: circuit.Tick(r.uint(8)), ConeCount: -1}

	if blocks := uint32(r.uint(4)); blocks > 0 {
		p.Part = &partition.Partition{Blocks: int(int32(blocks)), Assign: i32s[int](r, gates)}
		p.ConeCount = int(int32(r.uint(4)))
		p.Sweep = r.uint(1) != 0
	}
	if n := uint32(r.uint(4)); n > 0 {
		if p.Part == nil || int(n) != p.Part.Blocks {
			return nil, fmt.Errorf("%w: a shard map of %d entries does not cover the partition", ErrCorrupt, n)
		}
		p.ShardOf = i32s[int](r, n)
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("%w: %d bytes after the shard map", ErrCorrupt, len(r.b))
	}

	var err error
	if p.Circuit, err = circuit.FromFlat(kinds, delays, names, fanin, inputs, outputs); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if got := ckpt.Fingerprint(p.Circuit); got != fp {
		return nil, fmt.Errorf("%w: circuit fingerprint %s, sealed %s", ErrCorrupt, got, fp)
	}
	if err := stim.Validate(p.Circuit); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if p.Part != nil {
		if err := p.Part.Validate(p.Circuit); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}
	for lp, s := range p.ShardOf {
		if s < 0 {
			return nil, fmt.Errorf("%w: LP %d mapped to shard %d", ErrCorrupt, lp, s)
		}
	}
	return p, nil
}
