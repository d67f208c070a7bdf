package wire

import (
	"errors"
	"net"
	"testing"
	"time"
)

// seamPair is socketPair with the full production wiring: endpoint
// failures reach the seams' Down hooks, and the server's frame handler
// can be overridden (before any traffic) to intercept control frames.
func seamPair(t *testing.T, shardOf []int, serverHandler func(s *Seam, kind byte, payload []byte)) (client, server *Seam, cleanup func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()

	serverEP := New(Config{Shard: 0})
	server = NewSeam(serverEP, 1, shardOf)
	if serverHandler == nil {
		serverHandler = func(s *Seam, kind byte, payload []byte) { s.HandleFrame(kind, payload) }
	}
	sv := server
	serverEP.cfg.Handler = func(kind byte, payload []byte) { serverHandler(sv, kind, payload) }
	serverEP.cfg.OnDown = server.Down
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			hello, err := ReadHello(c)
			if err != nil {
				c.Close()
				continue
			}
			serverEP.Attach(c, hello.RecvSeq)
		}
	}()

	clientEP := New(Config{
		Shard:      -1,
		Dial:       func() (net.Conn, error) { return net.Dial("tcp", addr) },
		Hello:      Hello{Shard: 0, Attempt: 0},
		MaxRedials: 50,
		RedialBase: time.Millisecond,
		RedialCap:  20 * time.Millisecond,
	})
	client = NewSeam(clientEP, 0, shardOf)
	clientEP.cfg.Handler = func(kind byte, payload []byte) { client.HandleFrame(kind, payload) }
	clientEP.cfg.OnDown = client.Down
	if err := clientEP.Connect(); err != nil {
		t.Fatal(err)
	}
	return client, server, func() {
		ln.Close()
		clientEP.Close()
		serverEP.Close()
	}
}

// TestSeamGVTConversation walks one full distributed GVT exchange
// through the seam on both sides of a real socket: round command in,
// report out, done and terminate commands, plus the flight accounting
// the Mattern conclusion reads.
func TestSeamGVTConversation(t *testing.T) {
	shardOf := []int{0, 1}
	reports := make(chan GVTReport, 4)
	client, server, cleanup := seamPair(t, shardOf, func(s *Seam, kind byte, payload []byte) {
		if kind == FGVTReport {
			if r, err := DecodeGVTReport(payload); err == nil {
				reports <- r
			}
			return
		}
		s.HandleFrame(kind, payload)
	})
	defer cleanup()

	if client.Self() != 0 || server.Self() != 1 {
		t.Fatalf("Self: %d/%d", client.Self(), server.Self())
	}
	if client.Shards() != 2 {
		t.Fatalf("Shards = %d", client.Shards())
	}
	if client.Shard(1) != 1 || !client.Local(0) || client.Local(1) {
		t.Fatal("shard map accessors disagree with shardOf")
	}

	// Hub (server side) starts a round; the worker (client) must see it
	// as a CmdRound.
	server.Endpoint().Send(FGVTStart, AppendGVTStart(nil, GVTStart{Round: 3}))
	cmd, err := client.GVTNext()
	if err != nil || cmd.Kind != CmdRound || cmd.Round != 3 {
		t.Fatalf("round command: %+v, %v", cmd, err)
	}

	// The worker reports; the report must carry the cumulative wire
	// counters (one batch of 2 sent just before).
	client.Send(1, []Msg{{Time: 1}, {Time: 2}})
	client.GVTReport(3, true, 777)
	select {
	case r := <-reports:
		if r.Round != 3 || !r.Quiet || r.LocalMin != 777 || r.Sent != 2 {
			t.Fatalf("report: %+v", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("report never arrived")
	}
	if sent, _ := client.SentRecv(); sent != 2 {
		t.Fatalf("SentRecv sent = %d", sent)
	}

	// Done without terminate, then terminate.
	server.Endpoint().Send(FGVTDone, AppendGVTDone(nil, GVTDone{GVT: 40}))
	if cmd, err = client.GVTNext(); err != nil || cmd.Kind != CmdDone || cmd.GVT != 40 {
		t.Fatalf("done command: %+v, %v", cmd, err)
	}
	server.Endpoint().Send(FGVTDone, AppendGVTDone(nil, GVTDone{GVT: 90, Terminate: true}))
	if cmd, err = client.GVTNext(); err != nil || cmd.Kind != CmdTerminate || cmd.GVT != 90 {
		t.Fatalf("terminate command: %+v, %v", cmd, err)
	}
}

// TestSeamPendingBufferAndProgress: batches delivered before an LP is
// bound must be buffered and flushed at Bind in arrival order, and the
// progress probe must report zero/not-idle until an engine registers.
func TestSeamPendingBufferAndProgress(t *testing.T) {
	shardOf := []int{1, 1}
	client, server, cleanup := seamPair(t, shardOf, nil)
	defer cleanup()

	// No Bind yet: these park in the seam's pending buffer.
	client.Send(0, []Msg{{Time: 1}})
	client.Send(0, []Msg{{Time: 2}})
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, recv := server.SentRecv(); recv == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pre-bind batches never delivered to the seam")
		}
		time.Sleep(time.Millisecond)
	}

	var got []uint64
	server.Bind(0, func(ms []Msg) {
		for _, m := range ms {
			got = append(got, m.Time)
		}
	})
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("flushed pending batches = %v, want [1 2]", got)
	}

	if ev, idle := server.Progress(); ev != 0 || idle {
		t.Fatalf("unregistered probe: %d, %v", ev, idle)
	}
	server.SetProgress(func() (uint64, bool) { return 42, true })
	if ev, idle := server.Progress(); ev != 42 || !idle {
		t.Fatalf("registered probe: %d, %v", ev, idle)
	}
	server.SetProgress(nil)
	if ev, idle := server.Progress(); ev != 0 || idle {
		t.Fatalf("unregistered again: %d, %v", ev, idle)
	}

	st := server.TransportState()
	if len(st) != 1 || st[0].Shard != 0 {
		t.Fatalf("transport state: %+v", st)
	}
}

// TestSeamDownAndCancel: Down must unblock GVTNext with the first
// error, fire the OnDown hook, and CancelWait must release a waiter
// with the bare ErrDown sentinel.
func TestSeamDownAndCancel(t *testing.T) {
	ep := New(Config{Shard: 0})
	s := NewSeam(ep, 0, []int{0})

	fired := make(chan error, 2)
	s.OnDown(func(err error) { fired <- err })
	boom := errors.New("boom")
	s.Down(boom)
	s.Down(errors.New("second, ignored"))
	if _, err := s.GVTNext(); !errors.Is(err, boom) {
		t.Fatalf("GVTNext after Down: %v", err)
	}
	if err := <-fired; !errors.Is(err, boom) {
		t.Fatalf("hook error: %v", err)
	}
	s.OnDown(nil)

	// A fresh seam, cancelled without a failure: ErrDown sentinel.
	s2 := NewSeam(ep, 0, []int{0})
	done := make(chan error, 1)
	go func() {
		_, err := s2.GVTNext()
		done <- err
	}()
	s2.CancelWait()
	if err := <-done; !errors.Is(err, ErrDown) {
		t.Fatalf("GVTNext after CancelWait: %v", err)
	}
}

// TestEndpointStateAndChaos exercises the introspection surface the hub
// monitor reads and the chaos primitives deterministically: a frozen
// then unfrozen link still delivers, a forced retransmit duplicate is
// absorbed by sequence dedup, and a forced failure surfaces through the
// seam's down hook.
func TestEndpointStateAndChaos(t *testing.T) {
	shardOf := []int{1}
	client, server, cleanup := seamPair(t, shardOf, nil)
	defer cleanup()

	got := make(chan []Msg, 16)
	server.Bind(0, func(ms []Msg) { got <- ms })

	wait := func(want uint64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			select {
			case ms := <-got:
				if ms[len(ms)-1].Time == want {
					return
				}
			case <-time.After(time.Until(deadline)):
				t.Fatalf("message %d never arrived", want)
			}
		}
	}

	client.Send(0, []Msg{{Time: 1}})
	wait(1)

	// Freeze both directions briefly mid-stream; delivery must resume
	// once the freezes lift.
	client.Endpoint().FreezeOut(5 * time.Millisecond)
	client.Endpoint().FreezeIn(5 * time.Millisecond)
	client.Send(0, []Msg{{Time: 2}})
	wait(2)

	// Stall the client's inbound side so the next frame's ack cannot be
	// processed: the frame stays unacked, which makes ChaosDup re-send
	// it deterministically. The server's dedup must absorb the copy.
	client.Endpoint().FreezeIn(300 * time.Millisecond)
	client.Send(0, []Msg{{Time: 3}})
	wait(3)
	client.Endpoint().ChaosDup()
	deadline := time.Now().Add(5 * time.Second)
	for server.Endpoint().DupsDropped() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("forced duplicate was not counted as dropped")
		}
		time.Sleep(time.Millisecond)
	}

	if !client.Endpoint().Connected() {
		t.Error("client endpoint reports disconnected")
	}
	if age := server.Endpoint().LastRecvAge(); age < 0 || age > time.Minute {
		t.Errorf("implausible LastRecvAge %v", age)
	}
	st := client.Endpoint().State()
	if !st.Connected {
		t.Errorf("state snapshot: %+v", st)
	}

	// Fail tears the link down permanently and surfaces through the seam.
	downErr := make(chan error, 1)
	client.OnDown(func(err error) { downErr <- err })
	client.Endpoint().Fail(errors.New("forced failure"))
	select {
	case err := <-downErr:
		if err == nil {
			t.Error("nil failure error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Fail never reached the seam's down hook")
	}
	if client.Endpoint().Connected() {
		t.Error("failed endpoint still reports connected")
	}
}
