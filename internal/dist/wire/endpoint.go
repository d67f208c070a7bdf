package wire

import (
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim/supervise"
)

// ErrDown reports a permanently failed link.
var ErrDown = fmt.Errorf("wire: link down")

// handshakeTimeout bounds the hello/hello-ok exchange on a fresh
// connection.
const handshakeTimeout = 3 * time.Second

// ackEvery forces an explicit ack frame after this many sequenced
// frames received without reverse traffic, bounding the peer's
// retransmit buffer.
const ackEvery = 64

// Config configures an Endpoint.
type Config struct {
	// Shard is the peer's shard index, for transport-state reports (the
	// coordinator is shard -1 from a worker's point of view).
	Shard int
	// Dial re-establishes the connection (worker side). Nil on the
	// coordinator side, where reconnections arrive via Attach.
	Dial func() (net.Conn, error)
	// Hello is sent on every (re)connect; the endpoint fills RecvSeq.
	Hello Hello
	// MaxRedials bounds reconnection attempts per disconnect; exhausting
	// it fails the link.
	MaxRedials int
	// RedialBase/RedialCap shape the exponential backoff between redials
	// (jittered uniformly in [d/2, d)).
	RedialBase, RedialCap time.Duration
	// Handler receives every delivered frame (sequenced frames exactly
	// once, in order, plus heartbeats), on the endpoint's read goroutine,
	// one call at a time even across reconnects.
	Handler func(kind byte, payload []byte)
	// OnDown fires once when the link permanently fails.
	OnDown func(err error)
}

// savedFrame is one sequenced frame held for retransmit until acked.
type savedFrame struct {
	kind    byte
	seq     uint64
	payload []byte
}

// Endpoint is one end of a reliable link: it assigns sequence numbers,
// retains frames until the peer's cumulative ack, retransmits in order
// after a reconnect, drops duplicates by sequence number, and redials
// with exponential backoff when it owns the dialing side. Under those
// rules every chaos fault — stall, drop, duplicate, partition — is
// absorbed below the delivery contract: the Handler sees each sequenced
// frame exactly once, in send order.
type Endpoint struct {
	cfg Config

	// deliverMu serializes delivery across read loops: a reconnect starts
	// a new loop while the old one may sit between its dedup decision and
	// its Handler call, and the next frame must not overtake it. It is
	// taken before mu and held through the Handler, which may call Send.
	deliverMu      sync.Mutex
	mu             sync.Mutex
	conn           net.Conn
	connGen        uint64
	sendSeq        uint64 // last assigned outgoing seq
	sentUpTo       uint64 // highest seq written to the current conn
	maxSent        uint64 // highest seq ever written on any conn
	unacked        []savedFrame
	recvSeq        uint64 // highest contiguous seq delivered
	lastAckSent    uint64
	frozenOutUntil time.Time
	closed         bool
	down           bool
	downErr        error

	reconnects   atomic.Uint64
	dupsDropped  atomic.Uint64
	frames       atomic.Uint64 // sequenced frames delivered in order
	retransmits  atomic.Uint64 // sequenced frames written more than once
	lastRecvNano atomic.Int64
	frozenInNano atomic.Int64
	downOnce     sync.Once
}

// New creates an endpoint; worker sides call Connect before use,
// coordinator sides wait for Attach.
func New(cfg Config) *Endpoint {
	if cfg.RedialBase <= 0 {
		cfg.RedialBase = 20 * time.Millisecond
	}
	if cfg.RedialCap <= 0 {
		cfg.RedialCap = 500 * time.Millisecond
	}
	return &Endpoint{cfg: cfg}
}

// Connect establishes the initial connection (dialing side), applying
// the same retry budget as a mid-run reconnect.
func (e *Endpoint) Connect() error {
	return e.redial(fmt.Errorf("initial connect"))
}

// redial dials until a handshake succeeds or the budget is exhausted.
func (e *Endpoint) redial(prevErr error) error {
	backoff := e.cfg.RedialBase
	var lastErr error = prevErr
	for attempt := 0; attempt <= e.cfg.MaxRedials; attempt++ {
		e.mu.Lock()
		dead := e.closed || e.down
		e.mu.Unlock()
		if dead {
			return ErrDown
		}
		if attempt > 0 {
			// Clamp the sleep itself, not just the next doubling: the
			// jittered sleep lands in [d/2, d) with d capped at RedialCap
			// from the very first retry, so a large RedialBase can never
			// stretch a redial past the cap (and past the hub's heartbeat
			// watchdog window).
			d := backoff
			if d > e.cfg.RedialCap {
				d = e.cfg.RedialCap
			}
			time.Sleep(d/2 + rand.N(d/2+1))
			if backoff *= 2; backoff > e.cfg.RedialCap {
				backoff = e.cfg.RedialCap
			}
		}
		c, err := e.cfg.Dial()
		if err != nil {
			lastErr = err
			continue
		}
		if err := e.handshake(c); err != nil {
			c.Close()
			lastErr = err
			continue
		}
		return nil
	}
	err := fmt.Errorf("wire: redial budget exhausted (%d attempts): %w", e.cfg.MaxRedials+1, lastErr)
	e.fail(err)
	return err
}

// handshake runs the dialing side of the hello exchange on a fresh
// connection, then installs it.
func (e *Endpoint) handshake(c net.Conn) error {
	e.mu.Lock()
	hello := e.cfg.Hello
	hello.RecvSeq = e.recvSeq
	e.mu.Unlock()
	c.SetDeadline(time.Now().Add(handshakeTimeout))
	if err := writeFrame(c, FHello, 0, hello.RecvSeq, appendHello(nil, hello)); err != nil {
		return err
	}
	kind, _, _, payload, err := readFrame(c)
	if err != nil {
		return err
	}
	if kind != FHelloOK {
		return fmt.Errorf("wire: handshake got frame kind %d", kind)
	}
	ok, err := decodeHello(payload)
	if err != nil {
		return err
	}
	c.SetDeadline(time.Time{})
	e.install(c, ok.RecvSeq)
	return nil
}

// ReadHello reads the hello frame an accepting listener expects first
// on a fresh connection.
func ReadHello(c net.Conn) (Hello, error) {
	c.SetReadDeadline(time.Now().Add(handshakeTimeout))
	kind, _, _, payload, err := readFrame(c)
	if err != nil {
		return Hello{}, err
	}
	if kind != FHello {
		return Hello{}, fmt.Errorf("wire: expected hello, got frame kind %d", kind)
	}
	c.SetReadDeadline(time.Time{})
	return decodeHello(payload)
}

// Attach installs an accepted connection (coordinator side) whose hello
// reported peerRecv, answering with our receive position.
func (e *Endpoint) Attach(c net.Conn, peerRecv uint64) error {
	e.mu.Lock()
	if e.closed || e.down {
		e.mu.Unlock()
		c.Close()
		return ErrDown
	}
	recv := e.recvSeq
	e.mu.Unlock()
	if err := writeFrame(c, FHelloOK, 0, recv, appendHello(nil, Hello{RecvSeq: recv})); err != nil {
		c.Close()
		return err
	}
	e.install(c, peerRecv)
	return nil
}

// install swaps in a connected, handshaken conn: prunes acked frames,
// rewinds the write cursor to the peer's position so everything later
// retransmits in order, and starts the read loop.
func (e *Endpoint) install(c net.Conn, peerRecv uint64) {
	e.mu.Lock()
	if e.conn != nil {
		e.conn.Close()
		e.reconnects.Add(1)
	}
	e.pruneLocked(peerRecv)
	e.sentUpTo = peerRecv
	e.conn = c
	e.connGen++
	gen := e.connGen
	e.flushLocked()
	e.mu.Unlock()
	e.lastRecvNano.Store(time.Now().UnixNano())
	go e.readLoop(c, gen)
}

// pruneLocked drops retained frames at or below the peer's cumulative
// ack.
func (e *Endpoint) pruneLocked(ack uint64) {
	i := 0
	for i < len(e.unacked) && e.unacked[i].seq <= ack {
		i++
	}
	if i > 0 {
		e.unacked = append(e.unacked[:0], e.unacked[i:]...)
	}
}

// flushLocked writes every retained frame above the write cursor, in
// order. Freezes and missing connections leave frames retained; a later
// flush (unfreeze, reconnect, next send) picks them up.
func (e *Endpoint) flushLocked() {
	if e.conn == nil || time.Now().Before(e.frozenOutUntil) {
		return
	}
	for i := range e.unacked {
		fr := &e.unacked[i]
		if fr.seq <= e.sentUpTo {
			continue
		}
		if err := writeFrame(e.conn, fr.kind, fr.seq, e.recvSeq, fr.payload); err != nil {
			e.conn.Close()
			return
		}
		if fr.seq <= e.maxSent {
			e.retransmits.Add(1)
		} else {
			e.maxSent = fr.seq
		}
		e.sentUpTo = fr.seq
		e.lastAckSent = e.recvSeq
	}
}

// Send transmits a sequenced frame reliably: it is retained until the
// peer acknowledges it, surviving connection loss. Only a permanently
// failed link errors.
func (e *Endpoint) Send(kind byte, payload []byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.down {
		return e.downErr
	}
	if e.closed {
		return ErrDown
	}
	e.sendSeq++
	e.unacked = append(e.unacked, savedFrame{kind: kind, seq: e.sendSeq, payload: payload})
	e.flushLocked()
	return nil
}

// SendUnseq transmits a best-effort frame (heartbeats, acks): lost on a
// dead or frozen connection, never retransmitted.
func (e *Endpoint) SendUnseq(kind byte, payload []byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.conn == nil || e.down || e.closed || time.Now().Before(e.frozenOutUntil) {
		return nil
	}
	if err := writeFrame(e.conn, kind, 0, e.recvSeq, payload); err != nil {
		e.conn.Close()
		return nil
	}
	e.lastAckSent = e.recvSeq
	return nil
}

// readLoop delivers frames from one connection until it dies.
func (e *Endpoint) readLoop(c net.Conn, gen uint64) {
	for {
		if until := e.frozenInNano.Load(); until > 0 {
			if d := time.Until(time.Unix(0, until)); d > 0 {
				time.Sleep(d)
			}
		}
		kind, seq, ack, payload, err := readFrame(c)
		if err != nil {
			e.mu.Lock()
			stale := e.closed || e.down || gen != e.connGen
			if !stale && e.conn == c {
				e.conn = nil
			}
			redial := !stale && e.cfg.Dial != nil
			e.mu.Unlock()
			if redial {
				go e.redial(err)
			}
			return
		}
		e.lastRecvNano.Store(time.Now().UnixNano())
		e.deliverMu.Lock()
		e.mu.Lock()
		e.pruneLocked(ack)
		deliver := true
		var needAck bool
		if seq != 0 {
			if seq <= e.recvSeq {
				deliver = false
				e.dupsDropped.Add(1)
			} else {
				// The reliable layer retransmits in order, so a gap can
				// only mean stream corruption: drop the conn and let the
				// handshake resynchronize.
				if seq != e.recvSeq+1 {
					c.Close()
					e.mu.Unlock()
					e.deliverMu.Unlock()
					continue
				}
				e.recvSeq = seq
				e.frames.Add(1)
				needAck = e.recvSeq-e.lastAckSent >= ackEvery
			}
		} else {
			deliver = kind == FHeartbeat
		}
		e.mu.Unlock()
		if deliver && e.cfg.Handler != nil {
			e.cfg.Handler(kind, payload)
		}
		e.deliverMu.Unlock()
		if needAck {
			e.SendUnseq(FAck, nil)
		}
	}
}

// fail marks the link permanently down and fires OnDown once.
func (e *Endpoint) fail(err error) {
	e.mu.Lock()
	if e.closed || e.down {
		e.mu.Unlock()
		return
	}
	e.down = true
	e.downErr = fmt.Errorf("%w: %v", ErrDown, err)
	if e.conn != nil {
		e.conn.Close()
		e.conn = nil
	}
	e.mu.Unlock()
	e.downOnce.Do(func() {
		if e.cfg.OnDown != nil {
			e.cfg.OnDown(err)
		}
	})
}

// Fail is the exported failure entry point: the coordinator's monitor
// calls it when it gives up on a shard.
func (e *Endpoint) Fail(err error) { e.fail(err) }

// Close shuts the endpoint down quietly (no OnDown).
func (e *Endpoint) Close() {
	e.mu.Lock()
	e.closed = true
	if e.conn != nil {
		e.conn.Close()
		e.conn = nil
	}
	e.mu.Unlock()
}

// Connected reports whether a live connection is installed.
func (e *Endpoint) Connected() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.conn != nil && !e.down && !e.closed
}

// LastRecvAge is the time since any frame arrived (a very large value
// before the first).
func (e *Endpoint) LastRecvAge() time.Duration {
	n := e.lastRecvNano.Load()
	if n == 0 {
		return time.Duration(1<<62 - 1)
	}
	return time.Since(time.Unix(0, n))
}

// DupsDropped counts duplicate sequenced frames absorbed by dedup.
func (e *Endpoint) DupsDropped() uint64 { return e.dupsDropped.Load() }

// Reconnects counts completed reconnections.
func (e *Endpoint) Reconnects() uint64 { return e.reconnects.Load() }

// Frames counts sequenced frames delivered in order on this link.
func (e *Endpoint) Frames() uint64 { return e.frames.Load() }

// Retransmits counts sequenced frames written more than once (reconnect
// replays and chaos duplicates).
func (e *Endpoint) Retransmits() uint64 { return e.retransmits.Load() }

// State snapshots the link for watchdog hang reports.
func (e *Endpoint) State() supervise.TransportState {
	e.mu.Lock()
	connected := e.conn != nil && !e.down && !e.closed
	unacked := len(e.unacked)
	e.mu.Unlock()
	hb := int64(-1)
	if n := e.lastRecvNano.Load(); n > 0 {
		hb = time.Since(time.Unix(0, n)).Milliseconds()
	}
	return supervise.TransportState{
		Shard:           e.cfg.Shard,
		Connected:       connected,
		LastHeartbeatMs: hb,
		UnackedBatches:  unacked,
		Reconnects:      e.reconnects.Load(),
		Frames:          e.frames.Load(),
		Retransmits:     e.retransmits.Load(),
		DupsDropped:     e.dupsDropped.Load(),
	}
}

// FreezeOut blocks outgoing traffic for d (chaos: the outbound half of
// a partition). Sequenced frames queue and flush, in order, when the
// freeze lifts; unsequenced frames are lost, as on a dead route.
func (e *Endpoint) FreezeOut(d time.Duration) {
	e.mu.Lock()
	until := time.Now().Add(d)
	if until.After(e.frozenOutUntil) {
		e.frozenOutUntil = until
	}
	e.mu.Unlock()
	time.AfterFunc(d+time.Millisecond, func() {
		e.mu.Lock()
		e.flushLocked()
		e.mu.Unlock()
	})
}

// FreezeIn stops reading incoming traffic for d (chaos: the inbound
// half of a partition). Heartbeat perception stalls with it.
func (e *Endpoint) FreezeIn(d time.Duration) {
	e.frozenInNano.Store(time.Now().Add(d).UnixNano())
}

// ChaosDup re-sends the most recent still-unacked sequenced frame with
// its original sequence number (chaos: a retransmit duplicate). The
// peer's dedup must absorb it.
func (e *Endpoint) ChaosDup() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.conn == nil || time.Now().Before(e.frozenOutUntil) {
		return
	}
	for i := range e.unacked {
		fr := &e.unacked[i]
		if fr.seq == e.sentUpTo {
			if err := writeFrame(e.conn, fr.kind, fr.seq, e.recvSeq, fr.payload); err != nil {
				e.conn.Close()
			} else {
				e.retransmits.Add(1)
			}
			return
		}
	}
}

// ChaosDropConn closes the current connection without failing the link
// (chaos: a TCP reset). The dialing side redials with backoff; frames
// retransmit on reattach.
func (e *Endpoint) ChaosDropConn() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.conn != nil {
		e.conn.Close()
	}
}
