package dist

import (
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/dist/wire"
	"repro/internal/partition"
	"repro/internal/simtest/chaos/netfault"
)

// Mesh data plane. With Job.Mesh set, inter-shard FBatch traffic flows
// shard-to-shard over direct peer links instead of being relayed by the
// hub, cutting the data-plane hop count from two to one and taking the
// hub off the event-traffic critical path entirely — it keeps only the
// control plane (GVT rounds, heartbeats, results, chaos orders).
//
// Setup is a three-step handshake over the existing hub links: each
// worker opens a mesh listener and announces its address (FMeshAddr);
// the hub collects all addresses and broadcasts the routing table
// (FMeshTable); workers then connect to exactly the neighbors the
// partition's LP graph links them to. Both sides derive the neighbor set
// independently from the deterministic partition — the table carries
// only addresses, never topology — so a disagreement is impossible.
// For a neighbor pair (i, j) with i < j, the higher shard dials and
// owns the redial budget; the lower shard accepts, matching hellos by
// attempt. Each direction of a pair is one wire.Endpoint, so mesh links
// inherit the full reliable-delivery contract (sequencing, cumulative
// acks, in-order retransmit after redial, dup suppression) and the full
// chaos surface of the hub links.

// meshSetupWait bounds the whole mesh handshake: table wait plus peer
// connects. A worker that cannot complete its mesh inside this window
// reports the failure and lets the hub's recovery machinery restart the
// fleet.
const meshSetupWait = 30 * time.Second

// meshPeers lists the shards that shard self exchanges events with: the
// ones holding an LP linked, in either direction, to one of its own in the
// partition's LP graph. Cross-shard event traffic flows only along those
// links (stimulus and boot routing are shard-local), so these are exactly
// the peers the data plane needs.
func meshPeers(g *partition.Graph, shardOf []int, self, shards int) []bool {
	peers := make([]bool, shards)
	for lp, s := range shardOf {
		if s != self {
			continue
		}
		for _, links := range [][]partition.Link{g.Out[lp], g.In[lp]} {
			for _, l := range links {
				if p := shardOf[l.Peer]; p != self {
					peers[p] = true
				}
			}
		}
	}
	return peers
}

// meshNet is one worker's half of the mesh: its listener, its per-peer
// endpoints, and the accept machinery for higher-shard dialers.
type meshNet struct {
	self    int
	attempt int
	seam    *wire.Seam
	ln      net.Listener

	// eps[p] is the link to peer shard p (nil for non-neighbors and
	// self). Lower-peer entries are dial-side and filled by connect;
	// higher-peer entries are accept-side and pre-created here so an
	// early dialer always finds its endpoint.
	eps []*wire.Endpoint

	// accepted[p] closes when higher peer p's first connection attaches.
	accepted []chan struct{}
	acceptMu sync.Mutex
	attached []bool
}

// newMeshNet opens the mesh listener and pre-creates the accept-side
// endpoints. network/meshDir mirror the hub link's transport: tcp
// listens on loopback, unix sockets live in the job's mesh directory.
func newMeshNet(network, meshDir string, job *Job, seam *wire.Seam, neighbors []bool) (*meshNet, error) {
	laddr := "127.0.0.1:0"
	if network == "unix" {
		laddr = filepath.Join(meshDir, fmt.Sprintf("mesh-%d-%d.sock", job.Shard, job.Attempt))
	}
	ln, err := net.Listen(network, laddr)
	if err != nil {
		return nil, fmt.Errorf("dist: shard %d mesh listen: %w", job.Shard, err)
	}
	m := &meshNet{
		self:     job.Shard,
		attempt:  job.Attempt,
		seam:     seam,
		ln:       ln,
		eps:      make([]*wire.Endpoint, job.Shards),
		accepted: make([]chan struct{}, job.Shards),
		attached: make([]bool, job.Shards),
	}
	for p := job.Shard + 1; p < job.Shards; p++ {
		if !neighbors[p] {
			continue
		}
		m.accepted[p] = make(chan struct{})
		m.eps[p] = wire.New(wire.Config{
			Shard:   p,
			Handler: m.handle,
		})
	}
	go m.acceptLoop()
	return m, nil
}

// Addr is the listener address workers announce in FMeshAddr.
func (m *meshNet) Addr() string { return m.ln.Addr().String() }

// handle feeds delivered mesh frames into the seam; only FBatch flows
// on mesh links, and the seam's pre-bind pending buffers already handle
// batches that beat the engine to its Bind.
func (m *meshNet) handle(kind byte, payload []byte) {
	m.seam.HandleFrame(kind, payload)
}

// acceptLoop admits dialing peers for the worker's lifetime — chaos
// connection drops make higher peers redial mid-run, and each redial
// re-attaches here.
func (m *meshNet) acceptLoop() {
	for {
		c, err := m.ln.Accept()
		if err != nil {
			return
		}
		go m.admit(c)
	}
}

// admit validates one inbound hello (right attempt, an expected higher
// neighbor) and attaches the connection to that peer's endpoint.
func (m *meshNet) admit(c net.Conn) {
	hello, err := wire.ReadHello(c)
	if err != nil || int(hello.Attempt) != m.attempt {
		c.Close()
		return
	}
	p := int(hello.Shard)
	if p <= m.self || p >= len(m.eps) || m.eps[p] == nil {
		c.Close()
		return
	}
	if m.eps[p].Attach(c, hello.RecvSeq) != nil {
		return
	}
	m.acceptMu.Lock()
	if !m.attached[p] {
		m.attached[p] = true
		close(m.accepted[p])
	}
	m.acceptMu.Unlock()
}

// connect completes the mesh: dial every lower neighbor from the
// broadcast table and wait for every higher neighbor to dial in, all
// inside the deadline. On success the seam routes FBatch traffic over
// the returned peer slice.
func (m *meshNet) connect(network string, table wire.MeshTable, neighbors []bool, deadline time.Time) error {
	if len(table.Addrs) != len(m.eps) {
		return fmt.Errorf("dist: shard %d mesh table has %d addrs, want %d", m.self, len(table.Addrs), len(m.eps))
	}
	var wg sync.WaitGroup
	errs := make([]error, m.self)
	for p := 0; p < m.self; p++ {
		if !neighbors[p] {
			continue
		}
		addr := table.Addrs[p]
		ep := wire.New(wire.Config{
			Shard: p,
			Dial:  func() (net.Conn, error) { return net.Dial(network, addr) },
			Hello: wire.Hello{Shard: int32(m.self), Attempt: int32(m.attempt)},
			// Same budget and pacing as the hub link: chaos drops are
			// ridden out fast, a dead peer fails the link (and so the
			// run, triggering fleet recovery) within seconds.
			MaxRedials: 60,
			RedialBase: 5 * time.Millisecond,
			RedialCap:  250 * time.Millisecond,
			Handler:    m.handle,
			OnDown:     m.seam.Down,
		})
		m.eps[p] = ep
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			errs[p] = ep.Connect()
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			return fmt.Errorf("dist: shard %d mesh dial to shard %d: %w", m.self, p, err)
		}
	}
	for p := m.self + 1; p < len(m.eps); p++ {
		if m.accepted[p] == nil {
			continue
		}
		select {
		case <-m.accepted[p]:
		case <-time.After(time.Until(deadline)):
			return fmt.Errorf("dist: shard %d mesh accept from shard %d timed out", m.self, p)
		}
	}
	m.seam.SetPeers(m.eps)
	return nil
}

// applyChaos maps a hub chaos order onto the targeted mesh link; orders
// for absent links (non-neighbor targets in a random plan) are no-ops.
// OpStall has no relay to hold on a direct link, so it freezes the
// inbound half instead — delayed, never reordered, like the hub stall.
func (m *meshNet) applyChaos(co wire.Chaos) {
	p := int(co.Peer)
	if p < 0 || p >= len(m.eps) || m.eps[p] == nil {
		return
	}
	ep := m.eps[p]
	d := time.Duration(co.Ms) * time.Millisecond
	switch netfault.Op(co.Op) {
	case netfault.OpStall:
		ep.FreezeIn(d)
	case netfault.OpDropConn:
		ep.ChaosDropConn()
	case netfault.OpDup:
		ep.ChaosDup()
	case netfault.OpPartition:
		ep.FreezeOut(d)
		ep.FreezeIn(d)
	}
}

// close tears the mesh down: listener first (stops new attaches), then
// every peer link.
func (m *meshNet) close() {
	m.ln.Close()
	for _, ep := range m.eps {
		if ep != nil {
			ep.Close()
		}
	}
}
