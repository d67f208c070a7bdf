package wire

import (
	"sync"
	"sync/atomic"

	"repro/internal/sim/supervise"
)

// GVTCmdKind classifies a coordinator GVT command.
type GVTCmdKind uint8

// The command kinds a worker's GVT loop receives.
const (
	// CmdRound asks for one local handling round and a report.
	CmdRound GVTCmdKind = iota
	// CmdDone publishes a computed GVT: fossil-collect and resume.
	CmdDone
	// CmdTerminate ends the run: the GVT passed the horizon.
	CmdTerminate
)

// GVTCmd is one coordinator command in a worker's GVT loop.
type GVTCmd struct {
	Kind  GVTCmdKind
	Round uint32
	GVT   uint64
}

// Seam is the engine-facing face of a worker's link to the coordinator:
// remote sends, local delivery bindings, the distributed GVT
// conversation, and cross-shard flight accounting. Engines see only
// this type; the socket machinery stays behind it.
type Seam struct {
	ep      *Endpoint
	self    int
	shardOf []int

	// bindMu guards binds and pending: delivery (the endpoint read
	// goroutine) races engine startup (Bind), and a batch that arrives
	// before its LP is bound must be buffered, not dropped — the
	// reliable layer has already consumed and acked it, so a drop here
	// would be a silent message loss the retransmit machinery cannot
	// repair. Bind flushes the buffer under the lock, so buffered and
	// live batches cannot interleave out of order.
	bindMu  sync.Mutex
	binds   []func([]Msg)
	pending [][][]Msg

	// wireSent/wireRecv count cross-shard messages at flush/delivery
	// time; with the engines' local transit counters they are the
	// Mattern message-counting terms of distributed GVT.
	wireSent atomic.Uint64
	wireRecv atomic.Uint64

	// peers holds direct mesh endpoints per destination shard (nil
	// entries route through the hub). Installed once, before the engine
	// starts; published atomically so a late engine send cannot race the
	// install. meshBytes counts outbound FBatch payload volume sent over
	// mesh links, the data-plane accounting behind the mesh_bytes gauge
	// (the hub counts what it relays itself).
	peers     atomic.Pointer[[]*Endpoint]
	meshBytes atomic.Uint64

	gvt        chan GVTCmd
	cancel     chan struct{}
	cancelOnce sync.Once
	cancelErr  atomic.Pointer[error]

	onDown   atomic.Pointer[func(error)]
	progress atomic.Pointer[func() (uint64, bool)]
}

// NewSeam builds a seam for shard self over lp -> shard map shardOf.
func NewSeam(ep *Endpoint, self int, shardOf []int) *Seam {
	return &Seam{
		ep:      ep,
		self:    self,
		shardOf: shardOf,
		binds:   make([]func([]Msg), len(shardOf)),
		pending: make([][][]Msg, len(shardOf)),
		gvt:     make(chan GVTCmd, 16),
		cancel:  make(chan struct{}),
	}
}

// Self is this worker's shard index.
func (s *Seam) Self() int { return s.self }

// Shards is the shard count.
func (s *Seam) Shards() int {
	max := 0
	for _, sh := range s.shardOf {
		if sh > max {
			max = sh
		}
	}
	return max + 1
}

// Shard maps an LP to its owning shard.
func (s *Seam) Shard(lp int) int { return s.shardOf[lp] }

// Local reports whether this worker owns the LP.
func (s *Seam) Local(lp int) bool { return s.shardOf[lp] == s.self }

// Bind registers the delivery function for a local LP's inbox; batches
// arriving for that LP are handed over intact (one frame, one PutAll).
// Batches that arrived before the bind — a faster shard's engine can start
// sending while this one still decodes its job or boots — are flushed
// first, in arrival order, so a late engine misses nothing.
func (s *Seam) Bind(lp int, fn func([]Msg)) {
	s.bindMu.Lock()
	defer s.bindMu.Unlock()
	s.binds[lp] = fn
	for _, ms := range s.pending[lp] {
		fn(ms)
	}
	s.pending[lp] = nil
}

// SetPeers installs the mesh routing slice: peers[shard] is the direct
// endpoint for that shard, nil entries (and a nil slice) fall back to
// the hub relay. Called once, after mesh links are connected and before
// the engine starts.
func (s *Seam) SetPeers(peers []*Endpoint) {
	s.peers.Store(&peers)
}

// peerFor returns the direct mesh endpoint for a shard, or nil when the
// route goes through the hub.
func (s *Seam) peerFor(shard int) *Endpoint {
	p := s.peers.Load()
	if p == nil || shard < 0 || shard >= len(*p) {
		return nil
	}
	return (*p)[shard]
}

// MeshBytes reports outbound FBatch payload volume sent directly
// worker-to-worker.
func (s *Seam) MeshBytes() uint64 { return s.meshBytes.Load() }

// Send transmits a batch to a remote LP — directly over the mesh link
// to the destination's shard when one is installed, through the hub
// relay otherwise. The batch is counted sent here, atomically with
// leaving the engine's local transit count, so no GVT round can observe
// the messages in neither ledger. Link loss surfaces through OnDown,
// not here: the run is aborted wholesale.
func (s *Seam) Send(dst int, ms []Msg) {
	s.wireSent.Add(uint64(len(ms)))
	payload := AppendBatch(make([]byte, 0, batchOverhead+len(ms)*msgSize), int32(dst), ms)
	if ep := s.peerFor(s.shardOf[dst]); ep != nil {
		s.meshBytes.Add(uint64(len(payload)))
		ep.Send(FBatch, payload)
		return
	}
	s.ep.Send(FBatch, payload)
}

// HandleFrame dispatches one delivered frame; the worker's frame
// dispatcher calls it first and falls back to its own handling when it
// returns false.
func (s *Seam) HandleFrame(kind byte, payload []byte) bool {
	switch kind {
	case FBatch:
		dst, ms, err := DecodeBatch(payload)
		if err != nil {
			s.Down(err)
			return true
		}
		s.wireRecv.Add(uint64(len(ms)))
		if int(dst) < len(s.binds) {
			s.bindMu.Lock()
			if fn := s.binds[dst]; fn != nil {
				fn(ms)
			} else {
				s.pending[dst] = append(s.pending[dst], ms)
			}
			s.bindMu.Unlock()
		}
		return true
	case FGVTStart:
		g, err := DecodeGVTStart(payload)
		if err != nil {
			s.Down(err)
			return true
		}
		s.gvt <- GVTCmd{Kind: CmdRound, Round: g.Round}
		return true
	case FGVTDone:
		g, err := DecodeGVTDone(payload)
		if err != nil {
			s.Down(err)
			return true
		}
		cmd := GVTCmd{Kind: CmdDone, GVT: g.GVT}
		if g.Terminate {
			cmd.Kind = CmdTerminate
		}
		s.gvt <- cmd
		return true
	}
	return false
}

// GVTNext blocks for the coordinator's next GVT command; it returns an
// error once the link fails or the engine cancels the wait, so a
// coordinator death can never park the worker forever.
func (s *Seam) GVTNext() (GVTCmd, error) {
	select {
	case cmd := <-s.gvt:
		return cmd, nil
	case <-s.cancel:
		if p := s.cancelErr.Load(); p != nil {
			return GVTCmd{}, *p
		}
		return GVTCmd{}, ErrDown
	}
}

// GVTReport answers a round with local quiescence, the local minimum,
// and the cumulative wire counters.
func (s *Seam) GVTReport(round uint32, quiet bool, localMin uint64) {
	s.ep.Send(FGVTReport, AppendGVTReport(nil, GVTReport{
		Round:    round,
		Quiet:    quiet,
		LocalMin: localMin,
		Sent:     s.wireSent.Load(),
		Recv:     s.wireRecv.Load(),
	}))
}

// SentRecv reads the cumulative cross-shard message counters.
func (s *Seam) SentRecv() (sent, recv uint64) {
	return s.wireSent.Load(), s.wireRecv.Load()
}

// OnDown registers the engine's abort hook for link failure (nil
// unregisters; engines defer that so a late failure cannot touch a
// finished run).
func (s *Seam) OnDown(fn func(error)) {
	if fn == nil {
		s.onDown.Store(nil)
		return
	}
	s.onDown.Store(&fn)
}

// Down reports a permanent link failure: it unblocks GVTNext and fires
// the engine hook. Idempotent; the first error wins.
func (s *Seam) Down(err error) {
	s.cancelOnce.Do(func() {
		s.cancelErr.Store(&err)
		close(s.cancel)
	})
	if p := s.onDown.Load(); p != nil {
		(*p)(err)
	}
}

// CancelWait unblocks any pending GVTNext without a link failure (the
// engine's own abort path).
func (s *Seam) CancelWait() {
	s.cancelOnce.Do(func() { close(s.cancel) })
}

// SetProgress registers the engine's live progress probe — cumulative
// processed events and an all-idle flag — which the worker's heartbeat
// loop samples between frames. Nil unregisters.
func (s *Seam) SetProgress(fn func() (events uint64, idle bool)) {
	if fn == nil {
		s.progress.Store(nil)
		return
	}
	s.progress.Store(&fn)
}

// Progress samples the engine's registered progress probe; zero and
// not-idle before an engine attaches.
func (s *Seam) Progress() (events uint64, idle bool) {
	if p := s.progress.Load(); p != nil {
		return (*p)()
	}
	return 0, false
}

// TransportState snapshots the coordinator link and every installed
// mesh link for hang reports, so a mesh partition is diagnosable from
// the report alone.
func (s *Seam) TransportState() []supervise.TransportState {
	out := []supervise.TransportState{s.ep.State()}
	if p := s.peers.Load(); p != nil {
		for _, ep := range *p {
			if ep != nil {
				out = append(out, ep.State())
			}
		}
	}
	return out
}

// Endpoint exposes the underlying link (the worker's heartbeat loop and
// dispatcher live above the seam).
func (s *Seam) Endpoint() *Endpoint { return s.ep }
