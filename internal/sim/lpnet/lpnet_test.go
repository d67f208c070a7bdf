package lpnet

import (
	"errors"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/dist/wire"
	"repro/internal/eventq"
	"repro/internal/logic"
	"repro/internal/mpsc"
	"repro/internal/partition"
	"repro/internal/sim/ckpt"
	"repro/internal/sim/kernel"
	"repro/internal/sim/supervise"
	"repro/internal/simtest/chaos/inject"
	"repro/internal/vectors"
)

// The gates of fanoutCircuit, in declaration (= ID) order.
const (
	gA circuit.GateID = iota // input, fans out to x, y, z
	gB                       // input, feeds z
	gX                       // NOT a
	gY                       // BUF a
	gZ                       // AND a b
)

// fanoutCircuit builds a -> {x, y, z}, b -> z, with an output on each of
// x, y and z, and assigns it to three LPs so that a's audience is the
// owner (1) followed by x's LP (2) and y's LP (0); z adds no new LP.
func fanoutCircuit(t *testing.T) (*circuit.Circuit, *partition.Partition) {
	t.Helper()
	b := circuit.NewBuilder()
	a, in2 := b.Input("a"), b.Input("b")
	x := b.Gate(circuit.Not, "x", a)
	y := b.Gate(circuit.Buf, "y", a)
	z := b.Gate(circuit.And, "z", a, in2)
	b.Output("ox", x)
	b.Output("oy", y)
	b.Output("oz", z)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	//                      a  b  x  y  z  ox oy oz
	p := &partition.Partition{Blocks: 3, Assign: []int{1, 0, 2, 0, 2, 2, 0, 2}}
	return c, p
}

func newNet(t *testing.T, s Spec[logic.Value]) *Net[logic.Value] {
	t.Helper()
	if s.Circuit == nil {
		s.Circuit, s.Partition = fanoutCircuit(t)
	}
	s.Plane, s.System = circuit.Scalar, logic.TwoValued
	if s.Engine == "" {
		s.Engine = "eng"
	}
	n, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

type routed struct {
	lp   int
	t    uint64
	gate circuit.GateID
}

func route(n *Net[logic.Value], changes []vectors.Change, until circuit.Tick) ([]routed, [][]kernel.Event) {
	var got []routed
	n.until = until
	initial := n.Route(changes, func(lp int, t uint64, ev kernel.Event) {
		got = append(got, routed{lp, t, ev.Gate})
	})
	return got, initial
}

func TestRouteOwnerThenGhosts(t *testing.T) {
	changes := []vectors.Change{
		{Time: 0, Input: gA, Value: logic.One},
		{Time: 5, Input: gA, Value: logic.Zero},
		{Time: 5, Input: gB, Value: logic.One},
		{Time: 90, Input: gA, Value: logic.One}, // past the horizon: pending in every cut
	}
	got, initial := route(newNet(t, Spec[logic.Value]{}), changes, 50)
	want := []routed{{1, 5, gA}, {2, 5, gA}, {0, 5, gA}, {0, 5, gB}, {2, 5, gB}, {1, 90, gA}, {2, 90, gA}, {0, 90, gA}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pushes = %v, want owner first, then ghosts in fanout order: %v", got, want)
	}
	for lp, evs := range initial {
		if len(evs) != 1 || evs[0] != (kernel.Event{Gate: gA, Value: logic.One}) {
			t.Fatalf("lp %d settle-step events = %v, want the t=0 change of a", lp, evs)
		}
	}

	// A shard routes to its own LPs only: LP 2 lives on shard 1.
	seam := wire.NewSeam(wire.New(wire.Config{}), 0, []int{0, 0, 1})
	got, initial = route(newNet(t, Spec[logic.Value]{Seam: seam}), changes, 50)
	want = []routed{{1, 5, gA}, {0, 5, gA}, {0, 5, gB}, {1, 90, gA}, {0, 90, gA}}
	if !reflect.DeepEqual(got, want) || len(initial[2]) != 0 {
		t.Fatalf("shard pushes = %v (initial %v), want %v and nothing for remote LP 2", got, initial, want)
	}

	// A checkpoint's events replace the stimulus.
	boot := &ckpt.Cut[logic.Value]{Events: []ckpt.EventT[logic.Value]{{Time: 7, Gate: gB, Value: logic.Zero}}}
	c, p := fanoutCircuit(t)
	st, _ := circuit.Scalar.InitState(c, logic.TwoValued)
	boot.Vals, boot.PrevClk, boot.Projected = st, st, st
	got, _ = route(newNet(t, Spec[logic.Value]{Circuit: c, Partition: p, Boot: boot}), changes, 50)
	if want = []routed{{0, 7, gB}, {2, 7, gB}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("boot pushes = %v, want %v", got, want)
	}
}

// countingBox records every PutAll it receives.
type countingBox struct {
	mpsc.Transport[Msg[logic.Value]]
	dst   int
	calls *[]putAll
}

type putAll struct {
	dst int
	ms  []Msg[logic.Value]
}

func (c countingBox) PutAll(ms []Msg[logic.Value]) {
	*c.calls = append(*c.calls, putAll{c.dst, append([]Msg[logic.Value](nil), ms...)})
}

func TestBatcherFIFOAndNullFold(t *testing.T) {
	var calls []putAll
	n := &Net[logic.Value]{Inboxes: make([]mpsc.Transport[Msg[logic.Value]], 3), lps: make([]lp[logic.Value], 3)}
	for i := range n.Inboxes {
		n.Inboxes[i] = countingBox{dst: i, calls: &calls}
	}
	n.initBatchers()
	b := n.Batcher(0)
	val := func(t circuit.Tick) Msg[logic.Value] { return Msg[logic.Value]{Kind: Value, From: 0, Time: t, Gate: 4} }
	null := func(t circuit.Tick) Msg[logic.Value] { return Msg[logic.Value]{Kind: Null, From: 0, Time: t} }

	for i, put := range []struct {
		dst  int
		m    Msg[logic.Value]
		fold bool
	}{
		{2, val(1), false},
		{2, null(5), false},
		{1, val(3), false},
		{2, val(2), false},
		{2, null(7), true}, // overwrites null(5) in place
		{1, null(4), false},
		{2, null(9), true},
	} {
		if folded := b.Put(put.dst, put.m); folded != put.fold {
			t.Fatalf("put %d: folded = %v, want %v", i, folded, put.fold)
		}
	}
	if len(calls) != 0 {
		t.Fatal("Put delivered before Flush")
	}
	b.Flush()
	want := []putAll{
		{2, []Msg[logic.Value]{val(1), null(9), val(2)}},
		{1, []Msg[logic.Value]{val(3), null(4)}},
	}
	if !reflect.DeepEqual(calls, want) {
		t.Fatalf("flush delivered %v, want one PutAll per destination in first-use order: %v", calls, want)
	}
	b.Flush()
	if len(calls) != 2 {
		t.Fatalf("a second flush delivered %v; batches were not emptied", calls[2:])
	}
	// The fold is per flush: a null after a flush starts a new batch.
	if b.Put(2, null(11)) {
		t.Fatal("a null folded into an already flushed batch")
	}
	b.Flush()
	if last := calls[len(calls)-1]; last.dst != 2 || !reflect.DeepEqual(last.ms, []Msg[logic.Value]{null(11)}) {
		t.Fatalf("post-flush null delivered as %v", last)
	}
}

func TestFailLatch(t *testing.T) {
	hook := inject.NewHook(1, nil)
	hook.HangLP = 0
	seam := wire.NewSeam(wire.New(wire.Config{}), 0, []int{0, 0, 0})
	n := newNet(t, Spec[logic.Value]{Chaos: hook, Seam: seam})

	hung := make(chan struct{})
	go func() {
		hook.Stall(0, inject.PhaseEvaluate)
		close(hung)
	}()
	gvt := make(chan error, 1)
	go func() {
		_, err := seam.GVTNext()
		gvt <- err
	}()
	select {
	case <-hung:
		t.Fatal("the chaos hang did not park its LP")
	case <-time.After(20 * time.Millisecond):
	}

	first := errors.New("first")
	n.Fail(first)
	n.Fail(errors.New("second"))
	if !n.Aborted() {
		t.Fatal("Fail did not abort the run")
	}
	if n.err != first {
		t.Fatalf("latched %v, want the first error", n.err)
	}
	select {
	case <-hung:
	case <-time.After(5 * time.Second):
		t.Fatal("Fail did not release the chaos hang")
	}
	select {
	case err := <-gvt:
		if err == nil {
			t.Fatal("GVTNext returned a command after the abort")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Fail did not cancel the seam's GVT wait")
	}
	for i, ib := range n.Inboxes {
		done := make(chan struct{})
		go func() {
			ib.WaitDrain(nil)
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("inbox %d was not poked", i)
		}
	}
}

// script is a scripted rule: its LP steps through whatever the test queued
// and discards what a step produces, and the test decides what the LP does
// when idle, on a message and on parking.
type script struct {
	LP[logic.Value, kernel.Event]
	idle    func(s *script) Verdict
	handle  func(s *script, m Msg[logic.Value]) bool
	park    func(s *script)
	stepped []circuit.Tick
}

func (s *script) Pend(ev kernel.Event) kernel.Event { return ev }
func (s *script) Begin()                            {}
func (s *script) Live(kernel.Event) bool            { return true }
func (s *script) Ready(t circuit.Tick) bool         { return t != ckpt.Never }
func (s *script) Wake()                             {}

func (s *script) Next() circuit.Tick {
	if t, ok := s.Q.PeekTime(); ok {
		return circuit.Tick(t)
	}
	return ckpt.Never
}

func (s *script) Step(t circuit.Tick, _ []kernel.Event) { s.stepped = append(s.stepped, t) }

func (s *script) Handle(m Msg[logic.Value]) bool {
	if s.handle == nil {
		return m.Kind != Terminate
	}
	return s.handle(s, m)
}

func (s *script) Idle(circuit.Tick) Verdict {
	if s.idle == nil {
		return Park
	}
	return s.idle(s)
}

func (s *script) Park() {
	if s.park != nil {
		s.park(s)
	}
}

// scripted joins a script to every LP of n.
func scripted(n *Net[logic.Value], p Pace) []*script {
	ss := make([]*script, len(n.lps))
	for i := range ss {
		s := &script{}
		Join(n, &s.LP, i, s, eventq.New[kernel.Event](eventq.ImplHeap), p)
		s.K.Schedule = func(circuit.Tick, circuit.GateID, logic.Value) {}
		s.K.Send = func(int, circuit.Tick, circuit.GateID, logic.Value) {}
		ss[i] = s
	}
	return ss
}

// runWithin runs n and fails the test if it does not return in time.
func runWithin(t *testing.T, n *Net[logic.Value]) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- n.Run(Launch{}) }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return")
		return nil
	}
}

func TestRunIsolatesPanics(t *testing.T) {
	n := newNet(t, Spec[logic.Value]{Scoreboard: true})
	ss := scripted(n, Burst)
	var woke atomic.Int32
	for i, s := range ss {
		s.LVT = circuit.Tick(10 + i)
		s.handle = func(*script, Msg[logic.Value]) bool { woke.Add(1); return true }
	}
	ss[1].idle = func(*script) Verdict { panic("boom") }
	err := runWithin(t, n)
	var se *supervise.SimError
	if !errors.As(err, &se) || se.Kind != supervise.KindPanic || se.Engine != "eng" || se.LP != 1 ||
		se.Phase != "run" || se.ModeledTime != 11 {
		t.Fatalf("Run = %v, want a panic SimError for eng lp 1 in run at t=11", err)
	}
	if got := woke.Load(); got != 0 {
		t.Fatalf("siblings handled %d messages; the abort must end them, not feed them", got)
	}
}

// TestEventLimitNamesLPAndTime: the loop's runaway guard fails the run
// with an event-limit SimError naming the LP and the step that crossed
// the limit.
func TestEventLimitNamesLPAndTime(t *testing.T) {
	n := newNet(t, Spec[logic.Value]{MaxEvents: 3})
	ss := scripted(n, Burst)
	for _, tm := range []uint64{2, 3, 3, 3, 9} {
		ss[2].Q.Push(tm, kernel.Event{Gate: gX})
	}
	err := runWithin(t, n)
	var se *supervise.SimError
	if !errors.As(err, &se) || se.Kind != supervise.KindEventLimit || se.LP != 2 || se.ModeledTime != 3 ||
		se.Phase != "run" || se.Engine != "eng" {
		t.Fatalf("Run = %v, want an event-limit SimError for eng lp 2 at t=3", err)
	}
	if want := []circuit.Tick{2}; !reflect.DeepEqual(ss[2].stepped, want) {
		t.Fatalf("lp 2 stepped at %v, want %v: the step over the limit must not run", ss[2].stepped, want)
	}
}

// TestLoopFlushesBeforePark: a message an LP batches just before it parks
// reaches a peer that is itself parked, so neither sleeps forever. The
// watchdog turns a lost message into a hang error instead of a stuck test.
func TestLoopFlushesBeforePark(t *testing.T) {
	n := newNet(t, Spec[logic.Value]{HangTimeout: 2 * time.Second})
	ss := scripted(n, Burst)
	parked := make(chan struct{})
	var once sync.Once
	ss[1].park = func(*script) { once.Do(func() { close(parked) }) }
	sent := false
	ss[0].idle = func(s *script) Verdict {
		if !sent {
			<-parked
			s.Batch.Put(1, Msg[logic.Value]{Kind: Value, From: 0, Time: 5, Gate: gX})
			sent = true
		}
		return Park
	}
	got := false
	ss[1].handle = func(_ *script, m Msg[logic.Value]) bool {
		got = got || m.Kind == Value
		return true
	}
	ss[1].idle = func(s *script) Verdict {
		if !got {
			return Park
		}
		s.Batch.Put(0, Msg[logic.Value]{Kind: Terminate})
		s.Batch.Put(2, Msg[logic.Value]{Kind: Terminate})
		return Done
	}
	if err := runWithin(t, n); err != nil {
		t.Fatalf("Run = %v, want a clean finish", err)
	}
}

// TestFailWakesParkedLPs: Fail from outside the LPs wakes every parked LP,
// and Run returns the latched error.
func TestFailWakesParkedLPs(t *testing.T) {
	n := newNet(t, Spec[logic.Value]{})
	ss := scripted(n, Eager)
	var parked sync.WaitGroup
	parked.Add(len(ss))
	for _, s := range ss {
		var once sync.Once
		s.park = func(*script) { once.Do(parked.Done) }
	}
	boom := errors.New("boom")
	go func() {
		parked.Wait()
		n.Fail(boom)
	}()
	if err := runWithin(t, n); err != boom {
		t.Fatalf("Run = %v, want the latched %v", err, boom)
	}
}

// TestTerminateEndsOneLP: a Handle that returns false ends its own LP and
// no other; the ended LP handles nothing after it.
func TestTerminateEndsOneLP(t *testing.T) {
	n := newNet(t, Spec[logic.Value]{})
	ss := scripted(n, Burst)
	var mu sync.Mutex
	handled := make([][]Kind, len(ss))
	var parked sync.WaitGroup
	parked.Add(len(ss))
	ended := make(chan struct{})
	for i, s := range ss {
		var once sync.Once
		s.park = func(*script) { once.Do(parked.Done) }
		s.handle = func(_ *script, m Msg[logic.Value]) bool {
			mu.Lock()
			handled[i] = append(handled[i], m.Kind)
			mu.Unlock()
			if m.Kind == Terminate && i == 1 {
				close(ended)
			}
			return m.Kind != Terminate
		}
	}
	errc := make(chan error, 1)
	go func() { errc <- n.Run(Launch{}) }()
	parked.Wait()
	n.Inboxes[1].Put(Msg[logic.Value]{Kind: Terminate})
	<-ended
	n.Inboxes[1].Put(Msg[logic.Value]{Kind: Value, Time: 4, Gate: gX})
	mu.Lock()
	if len(handled[0])+len(handled[2]) != 0 {
		t.Errorf("other LPs handled %v and %v", handled[0], handled[2])
	}
	mu.Unlock()
	n.Inboxes[0].Put(Msg[logic.Value]{Kind: Terminate})
	n.Inboxes[2].Put(Msg[logic.Value]{Kind: Terminate})
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("Run = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return")
	}
	want := [][]Kind{{Terminate}, {Terminate}, {Terminate}}
	if !reflect.DeepEqual(handled, want) {
		t.Fatalf("handled %v, want one terminate each and nothing after lp 1's", handled)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	for k := Value; k <= Terminate; k++ {
		m := Msg[logic.Value]{Kind: k, From: 3, ID: 7<<40 | 12345, Time: 1 << 50, Gate: 77, Value: logic.One}
		if got := Decode(Encode(m)); got != m {
			t.Errorf("kind %d: round trip %+v -> %+v", k, m, got)
		}
	}
	ms := []wire.Msg{Encode(Msg[logic.Value]{Kind: Anti, From: 1, ID: 9, Time: 4, Gate: 2, Value: logic.X})}
	_, back, err := wire.DecodeBatch(wire.AppendBatch(nil, 0, ms))
	if err != nil || !reflect.DeepEqual(back, ms) {
		t.Fatalf("wire batch round trip = %v, %v", back, err)
	}
}

// TestMetaRoles pins every kind's chaos role to the mapping the engines
// used before they shared one message type, so seeded chaos plans and
// replay specs draw identically.
func TestMetaRoles(t *testing.T) {
	m := func(k Kind) Msg[logic.Value] { return Msg[logic.Value]{Kind: k, From: 2, ID: 5, Time: 9, Gate: 1} }
	for k, want := range map[Kind]inject.Meta{
		Value:     {Kind: inject.Value, From: 2, Time: 9},
		Null:      {Kind: inject.Null, From: 2, Time: 9},
		Request:   {Kind: inject.Aux, From: 2},
		Permit:    {Kind: inject.Control},
		Anti:      {Kind: inject.Value, From: 2, Time: 9},
		GVTRound:  {Kind: inject.Control},
		GVTDone:   {Kind: inject.Control},
		Terminate: {Kind: inject.Control},
	} {
		if got := Meta(m(k)); got != want {
			t.Errorf("kind %d: Meta = %+v, want %+v", k, got, want)
		}
	}
}

// seamPair connects two seams over a loopback socket, shard 0 dialing
// shard 1.
func seamPair(t *testing.T, shardOf []int) (client, server *wire.Seam) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serverEP := wire.New(wire.Config{
		Shard:   0,
		Handler: func(kind byte, payload []byte) { server.HandleFrame(kind, payload) },
		OnDown:  func(err error) { server.Down(err) },
	})
	server = wire.NewSeam(serverEP, 1, shardOf)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			hello, err := wire.ReadHello(c)
			if err != nil {
				c.Close()
				continue
			}
			serverEP.Attach(c, hello.RecvSeq)
		}
	}()
	addr := ln.Addr().String()
	clientEP := wire.New(wire.Config{
		Shard:      -1,
		Dial:       func() (net.Conn, error) { return net.Dial("tcp", addr) },
		Hello:      wire.Hello{Shard: 0},
		MaxRedials: 50,
		RedialBase: time.Millisecond,
		RedialCap:  20 * time.Millisecond,
		Handler:    func(kind byte, payload []byte) { client.HandleFrame(kind, payload) },
		OnDown:     func(err error) { client.Down(err) },
	})
	client = wire.NewSeam(clientEP, 0, shardOf)
	if err := clientEP.Connect(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ln.Close()
		clientEP.Close()
		serverEP.Close()
	})
	return client, server
}

// TestSeamCarriesBatchesAndTransit drives the socket half of the network
// across a real connection: a batch put into a remote LP's outbox arrives
// in the bound mailbox on the other side as one decoded batch, counted
// messages leave the sender's transit ledger only once the seam has them,
// a link failure fails the run as a transport SimError, and the unhook
// detaches the progress probe.
func TestSeamCarriesBatchesAndTransit(t *testing.T) {
	shardOf := []int{0, 1, 0}
	client, server := seamPair(t, shardOf)
	cn := newNet(t, Spec[logic.Value]{Seam: client})
	sn := newNet(t, Spec[logic.Value]{Seam: server})

	unhook := sn.bindSeam(func() (uint64, bool) { return 42, true })
	if ev, idle := server.Progress(); ev != 42 || !idle {
		t.Fatalf("progress probe = (%d, %v), want (42, true)", ev, idle)
	}

	cn.Transit.Store(5)
	batch := []Msg[logic.Value]{
		{Kind: Value, From: 0, ID: 1, Time: 7, Gate: gX, Value: logic.One},
		{Kind: Null, From: 0, Time: 8},
		{Kind: Anti, From: 0, ID: 1, Time: 7, Gate: gX, Value: logic.One},
	}
	cn.Inboxes[1].PutAll(batch)
	if got := cn.Transit.Load(); got != 3 {
		t.Fatalf("transit after a batch with 2 counted messages = %d, want 3", got)
	}
	if sent, _ := client.SentRecv(); sent != 3 {
		t.Fatalf("wire-sent = %d, want 3", sent)
	}
	got, ok := sn.Inboxes[1].WaitDrain(nil)
	if !ok || !reflect.DeepEqual(got, batch) {
		t.Fatalf("delivered batch = %v (ok=%v), want %v", got, ok, batch)
	}
	if buf, ok := cn.Inboxes[1].WaitDrain(nil); ok || len(buf) != 0 || cn.Inboxes[1].Len() != 0 {
		t.Fatal("a remote outbox must never yield messages")
	}

	server.Down(errors.New("link cut"))
	var se *supervise.SimError
	if !sn.Aborted() || !errors.As(sn.err, &se) || se.Engine != "eng" || se.Phase != "transport" || se.Kind != supervise.KindInternal {
		t.Fatalf("link failure surfaced as %v", sn.err)
	}
	unhook()
	if ev, idle := server.Progress(); ev != 0 || idle {
		t.Fatalf("progress probe survived the unhook: (%d, %v)", ev, idle)
	}
}

// TestCutBoundaries: the boundaries an LP captures are the multiples of
// the interval inside the horizon after the boot boundary, on either value
// plane; none without a sink, and an interval past the horizon ends the
// sequence instead of wrapping around.
func TestCutBoundaries(t *testing.T) {
	sink := func(*ckpt.Cut[logic.Value]) {}
	boundaries := func(n *Net[logic.Value]) []circuit.Tick {
		var out []circuit.Tick
		for b := n.FirstCut(); b != ckpt.Never; b = n.NextCut(b) {
			out = append(out, b)
		}
		return out
	}
	for _, tc := range []struct {
		name  string
		every circuit.Tick
		boot  *ckpt.Cut[logic.Value]
		want  []circuit.Tick
	}{
		{"off", 0, nil, nil},
		{"fresh", 10, nil, []circuit.Tick{10, 20, 30}},
		{"horizon on a boundary", 7, nil, []circuit.Tick{7, 14, 21, 28, 35}},
		{"booted between boundaries", 10, &ckpt.Cut[logic.Value]{Time: 15}, []circuit.Tick{20, 30}},
		{"booted on a boundary", 10, &ckpt.Cut[logic.Value]{Time: 20}, []circuit.Tick{30}},
		{"interval past the horizon", ^circuit.Tick(0) - 3, nil, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := newNet(t, Spec[logic.Value]{Until: 35, Boot: tc.boot, Cuts: &ckpt.Cuts[logic.Value]{Every: tc.every, Sink: sink}})
			if got := boundaries(n); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("boundaries %v, want %v", got, tc.want)
			}
		})
	}
	c, p := fanoutCircuit(t)
	wide, err := New(Spec[logic.Word]{Engine: "wide", Plane: circuit.Wide, Circuit: c, Partition: p, Until: 35,
		Cuts: &ckpt.Cuts[logic.Word]{Every: 10, Sink: func(*ckpt.Cut[logic.Word]) {}}})
	if err != nil {
		t.Fatal(err)
	}
	var got []circuit.Tick
	for b := wide.FirstCut(); b != ckpt.Never; b = wide.NextCut(b) {
		got = append(got, b)
	}
	if want := []circuit.Tick{10, 20, 30}; !reflect.DeepEqual(got, want) {
		t.Errorf("wide boundaries %v, want %v", got, want)
	}
}
