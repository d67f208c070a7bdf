package pipeline_test

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/circuit"
	"repro/internal/partition"
	"repro/internal/pipeline"
	"repro/internal/sim/ckpt"
	"repro/internal/sim/seq"
	"repro/internal/simtest"
)

// corpus is every shape of run the wire must carry: the standard corpus
// partitioned four ways, the embedded ISCAS circuits, an optimized netlist
// and a cone-split one, and a serial run with no partition at all.
func corpus(t testing.TB) map[string]*pipeline.Prepared {
	t.Helper()
	out := map[string]*pipeline.Prepared{}
	std, err := simtest.StandardCorpus(1)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range std {
		part, err := partition.New(partition.MethodFM, e.C, 4, partition.Options{Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name] = &pipeline.Prepared{
			Circuit: e.C, Stim: e.Stim, Until: seq.Horizon(e.C, e.Stim),
			Part: part, ConeCount: -1, ShardOf: part.Group(2, nil),
		}
	}
	base := pipeline.Spec{Seed: 1, Vectors: 10, Activity: 0.5, Period: 40, Partition: partition.MethodFM}
	for name, mutate := range map[string]func(*pipeline.Spec){
		"c17":        func(s *pipeline.Spec) { s.Circuit, s.LPs, s.Shards = "c17", 2, 2 },
		"s27":        func(s *pipeline.Spec) { s.Circuit, s.LPs, s.Shards = "s27", 3, 2 },
		"opt":        func(s *pipeline.Spec) { s.Circuit, s.Opt, s.LPs, s.Shards = "seq300", true, 4, 2 },
		"cone-split": func(s *pipeline.Spec) { s.Circuit, s.ConeSplit, s.Presim, s.LPs, s.Shards = "seq300", true, true, 4, 3 },
		"serial":     func(s *pipeline.Spec) { s.Circuit, s.FineDelays = "dag200", 5 },
	} {
		spec := base
		mutate(&spec)
		run, err := pipeline.Prepare(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = run
	}
	return out
}

// TestEncodeDecodeRoundTrip: decoding an encoded run yields the same
// circuit, stimulus, horizon, partition and shard map; the decoded
// circuit's per-gate views alias its flat arrays, as a built circuit's do,
// and it has the fingerprint the original has.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	for name, run := range corpus(t) {
		payload, err := run.Encode()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := pipeline.Decode(payload)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c, d := run.Circuit, got.Circuit
		if !reflect.DeepEqual(c.Gates, d.Gates) || !reflect.DeepEqual(c.Inputs, d.Inputs) || !reflect.DeepEqual(c.Outputs, d.Outputs) {
			t.Errorf("%s: gates or I/O lists differ", name)
		}
		if !reflect.DeepEqual(c.Kinds, d.Kinds) || !reflect.DeepEqual(c.Delays, d.Delays) ||
			!reflect.DeepEqual(c.FaninAdj, d.FaninAdj) || !reflect.DeepEqual(c.FanoutAdj, d.FanoutAdj) ||
			!reflect.DeepEqual(c.Fanout, d.Fanout) {
			t.Errorf("%s: flat arrays differ", name)
		}
		for g := range d.Gates {
			id := circuit.GateID(g)
			if row := d.FaninAdj.Row(id); len(row) > 0 && unsafe.SliceData(d.Gates[g].Fanin) != unsafe.SliceData(row) {
				t.Fatalf("%s: gate %d fanin is a copy, not a view of FaninAdj", name, g)
			}
			if row := d.FanoutAdj.Row(id); len(row) > 0 && unsafe.SliceData(d.Fanout[g]) != unsafe.SliceData(row) {
				t.Fatalf("%s: gate %d fanout is a copy, not a view of FanoutAdj", name, g)
			}
			if by, ok := d.ByName(d.Gates[g].Name); !ok || by != id {
				t.Fatalf("%s: name table lost gate %d", name, g)
			}
		}
		if ckpt.Fingerprint(c) != ckpt.Fingerprint(d) {
			t.Errorf("%s: fingerprint changed", name)
		}
		if !reflect.DeepEqual(run.Stim, got.Stim) || run.Until != got.Until {
			t.Errorf("%s: stimulus or horizon differs", name)
		}
		if (run.Part == nil) != (got.Part == nil) ||
			run.Part != nil && (run.Part.Blocks != got.Part.Blocks || !reflect.DeepEqual(run.Part.Assign, got.Part.Assign)) {
			t.Errorf("%s: partition differs", name)
		}
		if run.ConeCount != got.ConeCount || run.Sweep != got.Sweep || !reflect.DeepEqual(run.ShardOf, got.ShardOf) {
			t.Errorf("%s: cone count, sweep or shard map differs", name)
		}
	}
}

// reseal recomputes a mutated payload's trailing checksum, so the mutation
// reaches the parser instead of stopping at the seal.
func reseal(p []byte) []byte {
	h := fnv.New64a()
	h.Write(p[:len(p)-8])
	binary.LittleEndian.PutUint64(p[len(p)-8:], h.Sum64())
	return p
}

// TestDecodeRejectsDamage walks the damage a frame can arrive with; each is
// an ErrCorrupt, none a panic.
func TestDecodeRejectsDamage(t *testing.T) {
	run := corpus(t)["c17"]
	good, err := run.Encode()
	if err != nil {
		t.Fatal(err)
	}
	clone := func() []byte { return append([]byte(nil), good...) }
	fpLen := int(binary.LittleEndian.Uint16(good[14:]))
	counts := 14 + 2 + fpLen // offset of the u32 gate count

	cases := map[string][]byte{
		"empty":            nil,
		"magic only":       good[:14],
		"truncated":        good[:len(good)/2],
		"one byte short":   good[:len(good)-1],
		"trailing byte":    append(clone(), 0),
		"other circuit":    nil, // filled below
		"wrong seal":       nil,
		"inflated gates":   nil,
		"inflated pins":    nil,
		"inflated name":    nil,
		"inflated stim":    nil,
		"unsealed bitflip": nil,
	}
	p := clone()
	p[16] ^= 0x01 // a character of the fingerprint
	cases["wrong seal"] = reseal(p)

	p = clone()
	p[len(p)/2] ^= 0x40
	cases["unsealed bitflip"] = p

	p = clone()
	binary.LittleEndian.PutUint32(p[counts:], 0xFFFFFFF0)
	cases["inflated gates"] = reseal(p)

	p = clone()
	binary.LittleEndian.PutUint32(p[counts+4:], 0x7FFFFFFF)
	cases["inflated pins"] = reseal(p)

	n := run.Circuit.NumGates()
	names := counts + 16 + n + 8*n + 4*(n+1) + 4*len(run.Circuit.FaninAdj.Idx) + 4*len(run.Circuit.Inputs) + 4*len(run.Circuit.Outputs)
	p = clone()
	binary.LittleEndian.PutUint16(p[names:], 0xFFFF)
	cases["inflated name"] = reseal(p)

	stim := names
	for g := range run.Circuit.Gates {
		stim += 2 + len(run.Circuit.Gates[g].Name)
	}
	p = clone()
	binary.LittleEndian.PutUint32(p[stim+8:], 0xFFFFFFFF)
	cases["inflated stim"] = reseal(p)

	// A well-formed payload of a different circuit under this one's seal.
	other, err := corpus(t)["s27"].Encode()
	if err != nil {
		t.Fatal(err)
	}
	otherFP := int(binary.LittleEndian.Uint16(other[14:]))
	p = append(append(append([]byte(nil), good[:16+fpLen]...), other[16+otherFP:len(other)-8]...), make([]byte, 8)...)
	cases["other circuit"] = reseal(p)

	for name, payload := range cases {
		if _, err := pipeline.Decode(payload); !errors.Is(err, pipeline.ErrCorrupt) {
			t.Errorf("%s: error %v, want ErrCorrupt", name, err)
		}
	}
	if _, err := pipeline.Decode(good); err != nil {
		t.Errorf("undamaged payload rejected: %v", err)
	}
}

// FuzzPreparedDecode feeds Decode arbitrary bytes, sealed and unsealed:
// the payload is input from outside the process, so the only acceptable
// outcomes are a run that passes its own checks or an ErrCorrupt. A panic
// or an allocation sized by an unchecked length field fails the fuzzer
// (the latter as an out-of-memory crash: length fields are 32 bits wide).
func FuzzPreparedDecode(f *testing.F) {
	for _, run := range corpus(f) {
		p, err := run.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p, uint32(0), byte(0), false)
		f.Add(p, uint32(len(p)/3), byte(0x80), true)
		f.Add(p[:len(p)/2], uint32(20), byte(0xFF), true)
	}
	f.Fuzz(func(t *testing.T, payload []byte, at uint32, flip byte, sealed bool) {
		p := append([]byte(nil), payload...)
		if len(p) > 0 {
			p[int(at)%len(p)] ^= flip
		}
		if sealed && len(p) >= 8 {
			reseal(p)
		}
		run, err := pipeline.Decode(p)
		if err != nil {
			if !errors.Is(err, pipeline.ErrCorrupt) {
				t.Fatalf("unstructured error: %v", err)
			}
			return
		}
		// Whatever decodes must be a run an engine can take: re-encoding
		// it is the cheapest walk over every array it carries.
		if _, err := run.Encode(); err != nil {
			t.Fatalf("decoded run does not re-encode: %v", err)
		}
		if run.Part != nil {
			if err := run.Part.Validate(run.Circuit); err != nil {
				t.Fatal(err)
			}
		}
		if err := run.Stim.Validate(run.Circuit); err != nil {
			t.Fatal(err)
		}
	})
}
