package wire

import (
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// socketPair wires a client seam to a server seam over a real TCP
// loopback connection, with the server re-accepting after connection
// drops (the reliable layer's reconnect path).
func socketPair(t *testing.T, lps int, shardOf []int) (client, server *Seam, cleanup func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()

	serverEP := New(Config{Shard: 0})
	server = NewSeam(serverEP, 1, shardOf)
	serverEP.cfg.Handler = func(kind byte, payload []byte) { server.HandleFrame(kind, payload) }
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
	if err := clientEP.Connect(); err != nil {
		t.Fatal(err)
	}
	return client, server, func() {
		ln.Close()
		clientEP.Close()
		serverEP.Close()
	}
}

// TestSocketTransportFIFOAndAtomicity is the lockstep property test for
// the socket transport, mirroring the mpsc stress suite: under many
// concurrent senders, every PutAll batch must arrive intact (one frame,
// one delivery — never split, never interleaved) and each sender's
// messages must arrive in send order, exactly once. Run with -race.
func TestSocketTransportFIFOAndAtomicity(t *testing.T) {
	const (
		senders = 8
		batches = 120
		lps     = 4
	)
	shardOf := []int{1, 1, 1, 1} // every LP remote from the client's view
	client, server, cleanup := socketPair(t, lps, shardOf)
	defer cleanup()

	type delivered struct {
		dst int
		ms  []Msg
	}
	var mu sync.Mutex
	var got []delivered
	done := make(chan struct{})
	total := 0
	for lp := 0; lp < lps; lp++ {
		lp := lp
		server.Bind(lp, func(ms []Msg) {
			mu.Lock()
			got = append(got, delivered{dst: lp, ms: ms})
			total += len(ms)
			if total == senders*batches*3 { // 3 msgs per batch
				close(done)
			}
			mu.Unlock()
		})
	}

	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(s), 7))
			seq := uint64(0)
			for b := 0; b < batches; b++ {
				ms := make([]Msg, 3)
				for i := range ms {
					seq++
					ms[i] = Msg{Kind: 1, From: int32(s), ID: uint64(b), Time: seq, Gate: int32(s)}
				}
				client.Send(rng.IntN(lps), ms)
			}
		}(s)
	}
	wg.Wait()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		mu.Lock()
		t.Fatalf("timed out: %d of %d messages delivered", total, senders*batches*3)
	}

	mu.Lock()
	defer mu.Unlock()
	next := make([]uint64, senders)      // next expected per-sender Time
	nextBatch := make([]uint64, senders) // next expected per-sender batch ID
	for _, d := range got {
		from := d.ms[0].From
		// Atomicity: a delivered batch is exactly one sent batch — uniform
		// sender, uniform batch ID, original size.
		if len(d.ms) != 3 {
			t.Fatalf("batch split or merged: %d msgs", len(d.ms))
		}
		for _, m := range d.ms {
			if m.From != from || m.ID != d.ms[0].ID {
				t.Fatalf("batch interleaved across senders: %+v vs %+v", m, d.ms[0])
			}
			// FIFO, exactly once: per-sender Time is the send counter.
			if m.Time != next[from]+1 {
				t.Fatalf("sender %d: message %d delivered after %d (reorder, loss, or duplicate)", from, m.Time, next[from])
			}
			next[from] = m.Time
		}
		if d.ms[0].ID != nextBatch[from] {
			t.Fatalf("sender %d: batch %d delivered after batch %d", from, d.ms[0].ID, nextBatch[from])
		}
		nextBatch[from]++
	}
	for s, n := range next {
		if n != batches*3 {
			t.Errorf("sender %d: %d of %d messages delivered", s, n, batches*3)
		}
	}
}

// TestSocketTransportSurvivesChaosFaults drives the same FIFO/atomicity
// contract while a chaos goroutine drops the connection, duplicates
// frames, and freezes both directions: the reliable layer (retransmit
// after reconnect, sequence dedup) must make every fault invisible
// above the seam.
func TestSocketTransportSurvivesChaosFaults(t *testing.T) {
	const (
		senders = 4
		batches = 150
	)
	shardOf := []int{1}
	client, server, cleanup := socketPair(t, 1, shardOf)
	defer cleanup()

	var mu sync.Mutex
	next := make([]uint64, senders)
	total := 0
	done := make(chan struct{})
	server.Bind(0, func(ms []Msg) {
		mu.Lock()
		defer mu.Unlock()
		from := ms[0].From
		for _, m := range ms {
			if m.From != from {
				t.Errorf("batch interleaved: %+v vs sender %d", m, from)
			}
			if m.Time != next[from]+1 {
				t.Errorf("sender %d: message %d after %d", from, m.Time, next[from])
			}
			next[from] = m.Time
			total++
		}
		if total == senders*batches*2 {
			close(done)
		}
	})

	stop := make(chan struct{})
	var chaosWG sync.WaitGroup
	chaosWG.Add(1)
	go func() {
		defer chaosWG.Done()
		rng := rand.New(rand.NewPCG(99, 1))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(time.Duration(1+rng.IntN(4)) * time.Millisecond):
			}
			switch i % 4 {
			case 0:
				client.Endpoint().ChaosDropConn()
			case 1:
				client.Endpoint().ChaosDup()
			case 2:
				client.Endpoint().FreezeOut(time.Duration(rng.IntN(5)) * time.Millisecond)
			case 3:
				client.Endpoint().FreezeIn(time.Duration(rng.IntN(5)) * time.Millisecond)
			}
		}
	}()

	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			seq := uint64(0)
			for b := 0; b < batches; b++ {
				ms := make([]Msg, 2)
				for i := range ms {
					seq++
					ms[i] = Msg{From: int32(s), Time: seq}
				}
				client.Send(0, ms)
			}
		}(s)
	}
	wg.Wait()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		mu.Lock()
		t.Fatalf("timed out under chaos: %d of %d messages delivered (reconnects=%d)",
			total, senders*batches*2, client.Endpoint().Reconnects())
	}
	close(stop)
	chaosWG.Wait()
}

// TestReconnectKeepsDeliveryOrder: a reconnect starts a new read loop
// while the old one is still inside the Handler with frame 1. Frame 2,
// retransmitted on the new connection, must not reach the Handler until
// frame 1's call has returned.
func TestReconnectKeepsDeliveryOrder(t *testing.T) {
	started := make(chan uint64, 2)
	release := make(chan struct{})
	var releaseOnce sync.Once
	free := func() { releaseOnce.Do(func() { close(release) }) }
	defer free()
	var done1 atomic.Bool
	ep := New(Config{Shard: 0, Handler: func(kind byte, payload []byte) {
		n := uint64(payload[0])
		if n == 2 && !done1.Load() {
			t.Error("frame 2 delivered while frame 1's handler was running")
		}
		started <- n
		if n == 1 {
			<-release
			done1.Store(true)
		}
	}})
	defer ep.Close()
	attach := func() net.Conn {
		peer, local := net.Pipe()
		go io.Copy(io.Discard, peer) // hello-ok and acks
		if err := ep.Attach(local, 0); err != nil {
			t.Fatal(err)
		}
		return peer
	}

	if err := writeFrame(attach(), FBatch, 1, 0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if n := <-started; n != 1 {
		t.Fatalf("first delivery was frame %d", n)
	}
	// The reconnect: the peer learned recvSeq 1 and sends frame 2 next.
	if err := writeFrame(attach(), FBatch, 2, 0, []byte{2}); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-started:
		t.Fatalf("frame %d delivered while frame 1's handler was blocked", n)
	case <-time.After(100 * time.Millisecond):
	}
	free()
	select {
	case n := <-started:
		if n != 2 {
			t.Fatalf("second delivery was frame %d", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("frame 2 never delivered after frame 1's handler returned")
	}
}

// TestRedialSleepCappedFromFirstRetry is the regression test for the
// backoff clamp: RedialCap must bound every jittered sleep, including
// the first retry's, not just the doubling of the next one. With the
// old code a RedialBase above the cap slept the full base on the first
// retry — here 2s each against a dead dialer, so four retries would
// take multiple seconds. Capped, the whole budget burns in tens of
// milliseconds.
func TestRedialSleepCappedFromFirstRetry(t *testing.T) {
	ep := New(Config{
		Shard:      0,
		Dial:       func() (net.Conn, error) { return nil, fmt.Errorf("dead address") },
		MaxRedials: 4,
		RedialBase: 2 * time.Second,
		RedialCap:  10 * time.Millisecond,
	})
	defer ep.Close()
	start := time.Now()
	err := ep.Connect()
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Connect to a dead dialer succeeded")
	}
	// 4 retries * <=10ms jittered sleep plus instant dial failures:
	// generous margin, but far below the uncapped >=1s first sleep.
	if elapsed > 500*time.Millisecond {
		t.Fatalf("redial budget took %v; sleeps not capped at RedialCap", elapsed)
	}
}

// TestBatchRoundTrip pins the wire encoding.
func TestBatchRoundTrip(t *testing.T) {
	in := []Msg{
		{Kind: 2, From: -1, ID: 1 << 62, Time: ^uint64(0), Gate: 1234, Value: 8},
		{Kind: 0, From: 7, ID: 0, Time: 0, Gate: -1, Value: 0},
	}
	p := AppendBatch(nil, 42, in)
	dst, out, err := DecodeBatch(p)
	if err != nil {
		t.Fatal(err)
	}
	if dst != 42 || len(out) != len(in) {
		t.Fatalf("dst=%d n=%d", dst, len(out))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Errorf("msg %d: %+v != %+v", i, in[i], out[i])
		}
	}
	if d, _ := BatchDst(p); d != 42 {
		t.Errorf("BatchDst = %d", d)
	}
	if _, _, err := DecodeBatch(p[:len(p)-1]); err == nil {
		t.Error("truncated batch decoded")
	}
}

// TestHeartbeatAndGVTPayloads pins the control payload encodings.
func TestHeartbeatAndGVTPayloads(t *testing.T) {
	hb, err := DecodeHeartbeat(AppendHeartbeat(nil, Heartbeat{Events: 991, Idle: true, Sent: 40, Recv: 38}))
	if err != nil || hb != (Heartbeat{Events: 991, Idle: true, Sent: 40, Recv: 38}) {
		t.Errorf("heartbeat: %+v, %v", hb, err)
	}
	ma, err := DecodeMeshAddr(AppendMeshAddr(nil, MeshAddr{Shard: 4, Addr: "127.0.0.1:9999"}))
	if err != nil || ma != (MeshAddr{Shard: 4, Addr: "127.0.0.1:9999"}) {
		t.Errorf("mesh-addr: %+v, %v", ma, err)
	}
	mt, err := DecodeMeshTable(AppendMeshTable(nil, MeshTable{Addrs: []string{"a", "b"}}))
	if err != nil || len(mt.Addrs) != 2 || mt.Addrs[0] != "a" || mt.Addrs[1] != "b" {
		t.Errorf("mesh-table: %+v, %v", mt, err)
	}
	co, err := DecodeChaos(AppendChaos(nil, Chaos{Op: 3, Peer: 1, Ms: 25}))
	if err != nil || co != (Chaos{Op: 3, Peer: 1, Ms: 25}) {
		t.Errorf("chaos: %+v, %v", co, err)
	}
	gs, err := DecodeGVTStart(AppendGVTStart(nil, GVTStart{Round: 7}))
	if err != nil || gs.Round != 7 {
		t.Errorf("gvt-start: %+v, %v", gs, err)
	}
	gr, err := DecodeGVTReport(AppendGVTReport(nil, GVTReport{Round: 3, Quiet: true, LocalMin: 55, Sent: 10, Recv: 9}))
	if err != nil || gr != (GVTReport{Round: 3, Quiet: true, LocalMin: 55, Sent: 10, Recv: 9}) {
		t.Errorf("gvt-report: %+v, %v", gr, err)
	}
	gd, err := DecodeGVTDone(AppendGVTDone(nil, GVTDone{GVT: 123, Terminate: true}))
	if err != nil || gd != (GVTDone{GVT: 123, Terminate: true}) {
		t.Errorf("gvt-done: %+v, %v", gd, err)
	}
	h, err := decodeHello(appendHello(nil, Hello{Shard: 3, Attempt: 2, RecvSeq: 17}))
	if err != nil || h != (Hello{Shard: 3, Attempt: 2, RecvSeq: 17}) {
		t.Errorf("hello: %+v, %v", h, err)
	}
}
