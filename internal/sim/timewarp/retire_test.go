package timewarp

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/partition"
	"repro/internal/sim/kernel"
	"repro/internal/sim/lpnet"
)

// rigUntil is the horizon of a rig's stimulus.
const rigUntil = 3000

// rig is LP 0 of a two-LP Time Warp network driven by hand: the test plays
// LP 1, choosing which messages arrive and when, so every rollback is
// placed where the test wants it. It steps the way the network's loop
// does.
type rig struct {
	*tlp[logic.Value]
	t      *testing.T
	net    *lpnet.Net[logic.Value]
	ghosts []circuit.GateID // non-source nets LP 1 owns and LP 0 reads
	out    []lpnet.Msg[logic.Value]
}

// newRig builds the rig's LP under cfg over a 120-gate random DAG with
// delays 1-4 and a random two-way split, stimulus queued and settled.
// Equal configurations build equal rigs.
func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	c, err := gen.RandomDAG(gen.RandomConfig{Gates: 120, Inputs: 8, Outputs: 6, Locality: 0.5, Seed: 11, Delays: gen.Fine(4, 11)})
	if err != nil {
		t.Fatal(err)
	}
	p, err := partition.New(partition.MethodRandom, c, 2, partition.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Partition, cfg.System = p, logic.TwoValued
	net, err := lpnet.New(lpnet.Spec[logic.Value]{
		Engine: "timewarp", Plane: circuit.Scalar, Circuit: c, Partition: p,
		System: logic.TwoValued, Until: rigUntil,
	})
	if err != nil {
		t.Fatal(err)
	}
	sh := &shared[logic.Value]{cfg: cfg, engine: "timewarp", c: c, until: rigUntil, net: net}
	r := &rig{tlp: newTLP(sh, 0), t: t, net: net}
	t.Cleanup(r.pool.Close)
	for g := range c.Kinds {
		if p.Assign[g] != 1 || c.Kinds[g].Source() {
			continue
		}
		for _, out := range c.FanoutAdj.Row(circuit.GateID(g)) {
			if p.Assign[out] == 0 {
				r.ghosts = append(r.ghosts, circuit.GateID(g))
				break
			}
		}
	}
	if len(r.ghosts) == 0 {
		t.Fatal("the split gives LP 0 no ghost nets")
	}
	for k, in := range c.Inputs {
		for tk := 1 + k; tk < rigUntil; tk += 7 {
			r.Q.Push(uint64(tk), r.Pend(kernel.Event{Gate: in, Value: logic.FromBool((tk/7+k)%2 == 0)}))
		}
	}
	r.K.Step(0, nil, true, nil, &r.St.LPCounters)
	r.Begin()
	return r
}

// runTo executes every step at or before until.
func (r *rig) runTo(until circuit.Tick) {
	var evs []qevent[logic.Value]
	for t := r.Next(); t <= until; t = r.Next() {
		evs = evs[:0]
		for {
			pt, ok := r.Q.PeekTime()
			if !ok || circuit.Tick(pt) != t {
				break
			}
			if _, e, _ := r.Q.PopMin(); r.Live(t, e) {
				evs = append(evs, e)
			}
		}
		r.Step(t, evs)
		r.LVT = t
		r.collect()
	}
}

// finish runs to the horizon, lets the idle LP cancel what lazy
// cancellation still holds, and collects everything as GVT reaching
// infinity would.
func (r *rig) finish() {
	r.runTo(rigUntil)
	r.Idle(infTick)
	r.collect()
	r.fossilCollect(infTick)
}

// collect flushes the LP's batch to LP 1 and keeps what it sent.
func (r *rig) collect() {
	r.Batch.Flush()
	r.out = r.net.Inboxes[1].TryDrain(r.out)
}

// recv delivers a value or anti-message from LP 1.
func (r *rig) recv(kind lpnet.Kind, id uint64, t circuit.Tick, g circuit.GateID, v logic.Value) {
	r.t.Helper()
	if !r.Handle(lpnet.Msg[logic.Value]{Kind: kind, From: 1, ID: 1<<idShift | id, Time: t, Gate: g, Value: v}) {
		r.t.Fatalf("message at %d ended the LP", t)
	}
	r.collect()
}

// survivors is what LP 1 ends up holding from the rig: every value
// message not annihilated by an anti-message with its id, as sorted
// (time, gate, value) triples. Every anti-message must cancel a value
// sent earlier.
func (r *rig) survivors() [][3]uint64 {
	r.t.Helper()
	live := map[uint64]lpnet.Msg[logic.Value]{}
	for _, m := range r.out {
		switch m.Kind {
		case lpnet.Value:
			live[m.ID] = m
		case lpnet.Anti:
			if _, ok := live[m.ID]; !ok {
				r.t.Fatalf("anti-message %#x at %d cancels nothing", m.ID, m.Time)
			}
			delete(live, m.ID)
		}
	}
	var out [][3]uint64
	for _, m := range live {
		out = append(out, [3]uint64{uint64(m.Time), uint64(m.Gate), uint64(m.Value)})
	}
	slices.SortFunc(out, func(a, b [3]uint64) int { return slices.Compare(a[:], b[:]) })
	return out
}

// matches checks r against a rig that got only the surviving messages,
// all before its first step: the same state on every owned net, the same
// waveform, the same surviving sends, the same clock. r must be finished.
func (r *rig) matches(ref *rig) {
	r.t.Helper()
	ref.finish()
	for _, g := range r.K.OwnGates() {
		v, c, p := r.K.Entry(g)
		rv, rc, rp := ref.K.Entry(g)
		if v != rv || c != rc || p != rp {
			r.t.Fatalf("net %d: state (%v,%v,%v), straight run (%v,%v,%v)", g, v, c, p, rv, rc, rp)
		}
	}
	if got, want := r.rec.Samples(), ref.rec.Samples(); !reflect.DeepEqual(got, want) {
		r.t.Fatalf("waveform differs from the straight run: %d samples, want %d", len(got), len(want))
	}
	if got, want := r.survivors(), ref.survivors(); !reflect.DeepEqual(got, want) {
		r.t.Fatalf("LP 1 holds %d messages, the straight run sent %d", len(got), len(want))
	}
	if r.LVT != ref.LVT {
		r.t.Fatalf("clock %d, straight run %d", r.LVT, ref.LVT)
	}
	if r.dead.len() != 0 || len(r.retired) != 0 {
		r.t.Fatalf("finished with %d tombstones and retired ranges %v", r.dead.len(), r.retired)
	}
}

// rigConfigs are the policies every rig scenario runs under.
var rigConfigs = map[string]Config{
	"incremental": {},
	"full-copy":   {StateSaving: FullCopy},
	"lazy":        {Cancellation: Lazy},
	"hybrid":      {IntraWorkers: 2},
}

func forEachConfig(t *testing.T, f func(t *testing.T, cfg Config)) {
	for _, name := range []string{"incremental", "full-copy", "lazy", "hybrid"} {
		t.Run(name, func(t *testing.T) { f(t, rigConfigs[name]) })
	}
}

// firstSeqAt is the first sequence number of the earliest step at or
// after ts.
func (r *rig) firstSeqAt(ts circuit.Tick) uint64 {
	for _, s := range r.steps {
		if s.time >= ts {
			return s.firstSeq
		}
	}
	r.t.Fatalf("no step at or after %d", ts)
	return 0
}

// TestRetireSwallowsEarlierRanges: two shallow rollbacks retire two
// disjoint ranges; a deep one retires a range that swallows both, and
// the run still ends where a run that got every message up front does.
func TestRetireSwallowsEarlierRanges(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg Config) {
		r, ref := newRig(t, cfg), newRig(t, cfg)
		g0, g1 := r.ghosts[0], r.ghosts[len(r.ghosts)-1]
		r.runTo(60)
		first := seqRange{lo: r.firstSeqAt(50), hi: r.seq}
		r.recv(lpnet.Value, 1, 50, g0, logic.One)
		r.runTo(55)
		second := seqRange{lo: r.firstSeqAt(53), hi: r.seq}
		r.recv(lpnet.Value, 2, 53, g1, logic.One)
		if len(r.retired) != 2 || r.retired[0].lo != first.lo || r.retired[0].hi != first.hi ||
			r.retired[1].lo != second.lo || r.retired[1].hi != second.hi {
			t.Fatalf("retired %v after two shallow rollbacks, want [%d,%d] and [%d,%d]",
				r.retired, first.lo, first.hi, second.lo, second.hi)
		}
		deep := seqRange{lo: r.firstSeqAt(20), hi: r.seq}
		r.recv(lpnet.Value, 3, 20, g0, logic.Zero)
		if len(r.retired) != 1 || r.retired[0].lo != deep.lo || r.retired[0].hi != deep.hi {
			t.Fatalf("retired %v after the deep rollback, want one range [%d,%d]", r.retired, deep.lo, deep.hi)
		}
		for q := first.lo; q <= second.hi; q++ {
			if !r.retiredSeq(q) {
				t.Fatalf("sequence %d of a swallowed range is live", q)
			}
		}
		r.finish()
		ref.recv(lpnet.Value, 1, 50, g0, logic.One)
		ref.recv(lpnet.Value, 2, 53, g1, logic.One)
		ref.recv(lpnet.Value, 3, 20, g0, logic.Zero)
		r.matches(ref)
	})
}

// TestAntiForRequeuedOriginal: an anti-message whose original was
// consumed rolls the LP back, which requeues the original, and then
// tombstones it; one whose original is still queued only tombstones it.
// Both originals vanish as if never sent.
func TestAntiForRequeuedOriginal(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg Config) {
		r, ref := newRig(t, cfg), newRig(t, cfg)
		g := r.ghosts[0]
		r.runTo(60)
		r.recv(lpnet.Value, 1, 30, g, logic.One)
		r.runTo(60)
		r.recv(lpnet.Anti, 1, 30, g, logic.One)
		if !has(r.dead.sorted(nil), tomb{30, 1<<idShift | 1}) || r.LVT >= 30 {
			t.Fatalf("after the anti-message: tombstones %v, clock %d", r.dead, r.LVT)
		}
		r.recv(lpnet.Value, 2, 80, g, logic.One)
		r.recv(lpnet.Anti, 2, 80, g, logic.One)
		r.finish()
		r.matches(ref)
	})
}

// TestLazyResendKeepsID: a straggler that changes nothing makes the
// re-executed steps regenerate every message, which lazy cancellation
// suppresses, keeping the original ids; later stragglers that flip every
// ghost net change them, and the originals are cancelled under those ids.
func TestLazyResendKeepsID(t *testing.T) {
	cfg := Config{Cancellation: Lazy}
	r, ref := newRig(t, cfg), newRig(t, cfg)
	g := r.ghosts[0]
	r.runTo(60)
	sent := len(r.out)
	if sent == 0 {
		t.Fatal("LP 0 sent nothing by time 60")
	}
	r.recv(lpnet.Value, 1, 30, g, r.K.Value(g)) // the value it already has
	r.runTo(60)
	if len(r.out) != sent || len(r.lazyPending) != 0 {
		t.Fatalf("re-execution sent %d new messages and left %d pending, want none",
			len(r.out)-sent, len(r.lazyPending))
	}
	for i, gh := range r.ghosts {
		v := logic.Not(r.K.Value(gh))
		r.recv(lpnet.Value, uint64(2+i), 25, gh, v)
		ref.recv(lpnet.Value, uint64(2+i), 25, gh, v)
	}
	r.finish()
	antis := 0
	for _, m := range r.out {
		if m.Kind == lpnet.Anti {
			antis++
		}
	}
	if antis == 0 {
		t.Fatal("the changing straggler cancelled nothing")
	}
	ref.recv(lpnet.Value, 1, 30, g, ref.K.Value(g))
	r.matches(ref) // survivors() checks every anti cancels an earlier id
}

// TestRetiredRangesStayBounded: hundreds of stragglers, each followed by
// a short run forward and, now and then, a fossil collection, never let
// the retired list grow past a handful of ranges, and the run ends where
// the straight run does.
func TestRetiredRangesStayBounded(t *testing.T) {
	forEachConfig(t, func(t *testing.T, cfg Config) {
		r, ref := newRig(t, cfg), newRig(t, cfg)
		rng := rand.New(rand.NewSource(5))
		type key struct {
			t circuit.Tick
			g circuit.GateID
		}
		used := map[key]bool{}
		peak := 0
		id := uint64(0)
		r.runTo(40)
		for r.LVT < rigUntil-100 {
			ts := r.LVT - circuit.Tick(rng.Intn(15))
			g := r.ghosts[rng.Intn(len(r.ghosts))]
			if used[key{ts, g}] {
				continue
			}
			used[key{ts, g}] = true
			id++
			v := logic.FromBool(rng.Intn(2) == 0)
			r.recv(lpnet.Value, id, ts, g, v)
			ref.recv(lpnet.Value, id, ts, g, v)
			peak = max(peak, len(r.retired))
			r.runTo(r.LVT + circuit.Tick(5+rng.Intn(20)))
			if id%16 == 0 {
				r.fossilCollect(r.LVT - 40)
			}
		}
		if r.St.Rollbacks < 100 {
			t.Fatalf("only %d rollbacks", r.St.Rollbacks)
		}
		if peak > 8 {
			t.Fatalf("the retired list reached %d ranges over %d rollbacks", peak, r.St.Rollbacks)
		}
		r.finish()
		r.matches(ref)
	})
}
