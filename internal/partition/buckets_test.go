package partition

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
)

// bucketModel is the naive reference for buckets: every free cell with its
// side, key and insertion order, searched by a full scan.
type bucketModel struct {
	side, key, seq map[int32]int
	clock          int
}

func newBucketModel() *bucketModel {
	return &bucketModel{side: map[int32]int{}, key: map[int32]int{}, seq: map[int32]int{}}
}

func (m *bucketModel) insert(s uint8, v int32, key int) {
	m.clock++
	m.side[v], m.key[v], m.seq[v] = int(s), key, m.clock
}

func (m *bucketModel) remove(v int32) {
	delete(m.side, v)
	delete(m.key, v)
	delete(m.seq, v)
}

// ranked lists side s's cells, greatest key first and, among equal keys,
// the most recently inserted first.
func (m *bucketModel) ranked(s uint8) []int32 {
	var out []int32
	for v, vs := range m.side {
		if vs == int(s) {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if m.key[a] != m.key[b] {
			return m.key[a] > m.key[b]
		}
		return m.seq[a] > m.seq[b]
	})
	return out
}

// bucketOp is one step of a lockstep run: 'i'nsert cell v on side s with
// key arg, 'r'emove v, 'u'pdate v's key by arg. Steps that do not apply (a
// present cell inserted, an absent one removed or updated, a key leaving
// [-pmax, pmax]) are skipped, so any byte string is a valid script.
type bucketOp struct {
	op   byte
	s    uint8
	v    int32
	arg  int32
	note string
}

// runBucketOps drives buckets and the model through ops, comparing the
// best cell and the full ranking of both sides after every step.
func runBucketOps(t *testing.T, n int, pmax int32, ops []bucketOp) {
	t.Helper()
	var b buckets
	b.reset(n, pmax)
	m := newBucketModel()
	for step, o := range ops {
		_, present := m.side[o.v]
		switch o.op {
		case 'i':
			if present || o.arg < -pmax || o.arg > pmax {
				continue
			}
			b.insert(o.s, o.v, o.arg)
			m.insert(o.s, o.v, int(o.arg))
		case 'r':
			if !present {
				continue
			}
			b.remove(uint8(m.side[o.v]), o.v)
			m.remove(o.v)
		case 'u':
			if nk := int32(m.key[o.v]) + o.arg; !present || nk < -pmax || nk > pmax {
				continue
			}
			s := uint8(m.side[o.v])
			b.update(s, o.v, o.arg)
			m.insert(s, o.v, m.key[o.v]+int(o.arg))
		}
		for s := uint8(0); s < 2; s++ {
			want := m.ranked(s)
			got := b.leaders(s, n+1, nil)
			if len(want) == 0 {
				want = nil
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d (%c v=%d arg=%d %s): side %d ranking %v, model %v", step, o.op, o.v, o.arg, o.note, s, got, want)
			}
			best := int32(-1)
			if len(want) > 0 {
				best = want[0]
			}
			if got := b.best(s); got != best {
				t.Fatalf("step %d (%c v=%d arg=%d %s): side %d best %d, model %d", step, o.op, o.v, o.arg, o.note, s, got, best)
			}
			if best >= 0 && int(b.key[best]) != m.key[best] {
				t.Fatalf("step %d: cell %d key %d, model %d", step, best, b.key[best], m.key[best])
			}
		}
	}
}

func TestGainBuckets(t *testing.T) {
	const pmax = 3
	for _, tc := range []struct {
		name string
		ops  []bucketOp
	}{
		{"both sides empty", nil},
		{"keys at the ends of the range", []bucketOp{
			{op: 'i', s: 0, v: 0, arg: pmax}, {op: 'i', s: 0, v: 1, arg: -pmax},
			{op: 'i', s: 1, v: 2, arg: -pmax}, {op: 'u', v: 1, arg: 2 * pmax, note: "bottom to top in one update"},
			{op: 'u', v: 0, arg: -2 * pmax, note: "top to bottom"}, {op: 'r', v: 1}, {op: 'r', v: 0}, {op: 'r', v: 2},
		}},
		{"LIFO among equal keys", []bucketOp{
			{op: 'i', s: 1, v: 4, arg: 1}, {op: 'i', s: 1, v: 2, arg: 1}, {op: 'i', s: 1, v: 7, arg: 1},
			{op: 'r', v: 2, note: "middle of a list"}, {op: 'r', v: 7, note: "head"}, {op: 'r', v: 4, note: "last"},
		}},
		{"update of the current max", []bucketOp{
			{op: 'i', s: 0, v: 0, arg: 2}, {op: 'i', s: 0, v: 1, arg: 0}, {op: 'i', s: 0, v: 2, arg: -1},
			{op: 'u', v: 0, arg: -3, note: "max drops below the others"}, {op: 'u', v: 2, arg: 4, note: "cursor must climb back"},
			{op: 'u', v: 2, arg: -1}, {op: 'u', v: 1, arg: 2, note: "ties the max, goes first"},
		}},
		{"remove then reinsert", []bucketOp{
			{op: 'i', s: 0, v: 3, arg: 1}, {op: 'i', s: 1, v: 5, arg: 1}, {op: 'r', v: 3},
			{op: 'i', s: 1, v: 3, arg: 1, note: "other side, same key"}, {op: 'r', v: 5}, {op: 'r', v: 3},
			{op: 'i', s: 0, v: 3, arg: -pmax}, {op: 'i', s: 0, v: 5, arg: pmax},
		}},
		{"one side drains while the other fills", []bucketOp{
			{op: 'i', s: 0, v: 0, arg: 0}, {op: 'i', s: 0, v: 1, arg: 1}, {op: 'r', v: 1}, {op: 'i', s: 1, v: 1, arg: 1},
			{op: 'r', v: 0}, {op: 'i', s: 1, v: 0, arg: 0},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { runBucketOps(t, 8, pmax, tc.ops) })
	}
}

// TestGainBucketsReset reuses one structure across shapes, as a pass does.
func TestGainBucketsReset(t *testing.T) {
	var b buckets
	for _, sh := range []struct {
		n    int
		pmax int32
	}{{4, 1}, {64, 9}, {3, 0}, {64, 9}} {
		b.reset(sh.n, sh.pmax)
		for s := uint8(0); s < 2; s++ {
			if got := b.best(s); got != -1 {
				t.Fatalf("n=%d pmax=%d: side %d best %d after reset", sh.n, sh.pmax, s, got)
			}
		}
		for v := 0; v < sh.n; v++ {
			b.insert(uint8(v%2), int32(v), int32(v)%(2*sh.pmax+1)-sh.pmax)
		}
		for s := uint8(0); s < 2; s++ {
			if got := len(b.leaders(s, sh.n, nil)); got != (sh.n+1-int(s))/2 {
				t.Fatalf("n=%d pmax=%d: side %d holds %d cells", sh.n, sh.pmax, s, got)
			}
		}
	}
}

// FuzzGainBuckets interprets the input three bytes at a time as an
// operation script and runs it in lockstep with the model.
func FuzzGainBuckets(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("i\x00\x07i\x01\x07u\x00\x00r\x01\x00i\x01\x00"))
	f.Add([]byte{0, 3, 9, 1, 3, 0, 2, 3, 18, 3, 3, 5, 0, 3, 0, 4, 250, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n, pmax = 16, 4
		var ops []bucketOp
		for ; len(data) >= 3; data = data[3:] {
			o := bucketOp{s: data[0] >> 7, v: int32(data[1] % n), note: fmt.Sprintf("raw %v", data[:3])}
			switch data[0] % 3 {
			case 0:
				o.op, o.arg = 'i', int32(data[2]%(2*pmax+1))-pmax
			case 1:
				o.op = 'r'
			case 2:
				o.op, o.arg = 'u', int32(data[2]%(4*pmax+1))-2*pmax
			}
			ops = append(ops, o)
		}
		runBucketOps(t, n, pmax, ops)
	})
}
