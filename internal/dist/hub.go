package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/circuit"
	"repro/internal/dist/wire"
	"repro/internal/eventq"
	"repro/internal/logic"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/pipeline"
	"repro/internal/sim/ckpt"
	"repro/internal/sim/supervise"
	"repro/internal/sim/timewarp"
	"repro/internal/simtest/chaos/netfault"
	"repro/internal/trace"
)

// Options configures a distributed run.
type Options struct {
	// Shards is the worker-process count (>= 1).
	Shards int
	// Engine is the worker engine: cmb, cmb-demand, timewarp, or
	// timewarp-lazy.
	Engine string

	// The workload, in pipeline.Spec's terms: the hub prepares it once and
	// ships the result to every worker. Until 0 derives the horizon from
	// the stimulus.
	Bench      string
	Circuit    string
	FineDelays uint64
	Seed       int64
	Vectors    int
	Activity   float64
	Period     uint64
	Until      uint64
	// Opt / OptPasses, ConeSplit and Presim transform the netlist and the
	// partition before anything is shipped (see pipeline.Spec).
	Opt       bool
	OptPasses string
	ConeSplit bool
	Presim    bool

	// LPs / Partition / PartitionSeed parameterize the gate partition
	// (default 4 LPs, fm); LPs are then grouped onto shards uniformly.
	LPs           int
	Partition     string
	PartitionSeed int64
	// System is the logic value system (default 9-valued).
	System logic.System
	// Queue, Window, Cancellation, StateSaving and HistoryLimit configure
	// the worker engines exactly as the core.Options fields of the same
	// names configure a single-process run.
	Queue        eventq.Impl
	Window       uint64
	Cancellation timewarp.Cancellation
	StateSaving  timewarp.StateSaving
	HistoryLimit uint64
	// MaxEvents aborts runaway shards (0 = unlimited).
	MaxEvents uint64
	// HangTimeout arms each worker's in-engine progress watchdog.
	HangTimeout time.Duration

	// Restore, when non-nil, resumes the run from a checkpoint: the first
	// attempt boots from it, and so does any recovery that finds no newer
	// shard boundary.
	Restore *ckpt.State

	// CheckpointEvery, when non-zero, arms per-shard checkpointing at
	// every multiple of this modeled time; recovery needs it.
	CheckpointEvery uint64
	// WorkDir holds shard snapshots, merged boot files, and (for the
	// unix network) the coordinator socket. Empty creates a temporary
	// directory that is removed when the run ends.
	WorkDir string

	// Restarts is the fleet-restart budget: after a shard loss the hub
	// kills every worker, merges the newest complete checkpoint
	// boundary, and relaunches, at most this many times.
	Restarts int
	// Fallback degrades a run whose restart budget is exhausted to a
	// single-process supervised run (sync, then seq) instead of failing
	// with a shard-loss error.
	Fallback bool

	// HeartbeatEvery paces worker liveness beacons (default 25ms);
	// HeartbeatTimeout is how long a silent, result-less shard can stay
	// silent before the hub declares it lost (default 1s).
	HeartbeatEvery   time.Duration
	HeartbeatTimeout time.Duration

	// Network is "tcp" (loopback, default) or "unix" (socket in
	// WorkDir).
	Network string

	// Mesh routes inter-shard event batches over direct worker-to-worker
	// links dialed from a hub-distributed routing table; the hub keeps
	// only the control plane (GVT, heartbeats, results, chaos). Falls
	// back to hub relay per-batch for any route without a mesh link.
	Mesh bool
	// CkptDelta makes per-shard checkpoints incremental: full snapshot
	// at the first boundary of each attempt, fingerprint-chained delta
	// records after, with recovery replaying the chain and degrading to
	// the last full snapshot when a link is broken.
	CkptDelta bool

	// Plan injects network chaos at the hub's relay: stalls, connection
	// drops, duplicates, partitions, and worker kills, each scoped to
	// one shard's link.
	Plan netfault.Plan

	// Spawn launches workers; nil uses in-process workers over real
	// sockets. ExecSpawner launches separate OS processes.
	Spawn Spawner

	// Metrics receives dist_* gauges (nil discards them).
	Metrics metrics.Sink
}

// Result is the outcome of a distributed run.
type Result struct {
	Values   []logic.Value
	Waveform trace.Waveform
	EndTime  circuit.Tick
	// Events sums committed net changes across shards (of the final,
	// successful attempt).
	Events uint64
	Shards int
	// Prepared is the workload the run simulated: the circuit the values
	// and waveform index into.
	Prepared *pipeline.Prepared
	// Attempts counts fleet launches; Recoveries counts checkpoint
	// restarts after a shard loss; Fallbacks counts degradations to a
	// simpler single-process engine.
	Attempts   int
	Recoveries int
	Fallbacks  int
	// FinalMode is "dist", or the single-process engine name that
	// finished the run after degradation ("sync", "seq").
	FinalMode string
	// Degraded, when FinalMode is not "dist", is the shard-loss error
	// that exhausted the restart budget.
	Degraded string
}

// Defaults.
const (
	defaultHeartbeat        = 25 * time.Millisecond
	defaultHeartbeatTimeout = 1 * time.Second
	// gvtInterval is the wall-clock ceiling between distributed GVT
	// cycles for the optimistic engines; like the single-process
	// coordinator, cycles are normally paced by reported work and by
	// all-idle heartbeats.
	gvtInterval = 50 * time.Millisecond
	// teardownGrace bounds how long the hub waits for workers to exit on
	// their own (after FDone, or after a kill) before moving on.
	teardownGrace = 5 * time.Second
)

// Run executes one distributed simulation: launch the fleet, relay and
// perturb traffic, recover from shard losses, and merge the shard
// results into a single report whose waveform is bit-identical to the
// sequential engine's.
func Run(opts Options) (*Result, error) {
	h, err := newHub(opts)
	if err != nil {
		return nil, err
	}
	defer h.close()

	var lastErr error
	for attempt := 0; attempt <= h.opts.Restarts; attempt++ {
		res, err := h.runAttempt(attempt)
		if err == nil {
			res.Attempts = attempt + 1
			res.Recoveries = attempt
			res.FinalMode = "dist"
			h.gauge("dist_shards", float64(h.opts.Shards))
			h.gauge("dist_recoveries", float64(attempt))
			h.gauge("dist_fallbacks", 0)
			return res, nil
		}
		lastErr = err
		if !recoverableDist(err) {
			return nil, err
		}
	}

	loss := &supervise.SimError{
		Engine: "dist", LP: -1, Phase: "supervise",
		Kind: supervise.KindShardLoss, Cause: lastErr,
	}
	h.gauge("dist_recoveries", float64(h.opts.Restarts))
	if !h.opts.Fallback {
		return nil, loss
	}
	return h.fallback(loss)
}

// recoverableDist reports whether a failed attempt is worth a restart.
// Everything is, except a verdict that would repeat on every attempt: the
// event-limit guard, and an engine that refuses the job's configuration.
func recoverableDist(err error) bool {
	var se *supervise.SimError
	if errors.As(err, &se) {
		return se.Kind != supervise.KindEventLimit
	}
	var rej *jobRejected
	return !errors.As(err, &rej)
}

// hub is the coordinator: listener, workload, and across-attempt state.
type hub struct {
	opts      Options
	run       *pipeline.Prepared
	gateShard []int // gate -> shard

	ln      net.Listener
	addr    string
	workDir string
	ownDir  bool // we created workDir and must remove it

	mu   sync.Mutex
	sess *session // the attempt the accept loop routes hellos to
}

// spec is the workload half of the options in pipeline's terms.
func (o *Options) spec() (pipeline.Spec, error) {
	method, err := partition.ParseMethod(o.Partition)
	if err != nil {
		return pipeline.Spec{}, err
	}
	return pipeline.Spec{
		Bench: o.Bench, Circuit: o.Circuit, FineDelays: o.FineDelays, Seed: o.Seed,
		Opt: o.Opt, OptPasses: o.OptPasses, ConeSplit: o.ConeSplit, Presim: o.Presim,
		Vectors: o.Vectors, Activity: o.Activity, Period: o.Period, Until: o.Until,
		System: o.System, LPs: o.LPs, Partition: method, PartitionSeed: o.PartitionSeed,
		Shards: o.Shards,
	}, nil
}

// newHub validates options, prepares the workload (shipped to the workers,
// and kept for shard maps, result merging, and the fallback path), and
// starts listening.
func newHub(opts Options) (*hub, error) {
	if opts.Shards < 1 {
		return nil, fmt.Errorf("dist: need at least one shard, got %d", opts.Shards)
	}
	if _, err := parseEngine(opts.Engine); err != nil {
		return nil, err
	}
	if opts.System == 0 {
		opts.System = logic.NineValued
	}
	if opts.HeartbeatEvery <= 0 {
		opts.HeartbeatEvery = defaultHeartbeat
	}
	if opts.HeartbeatTimeout <= 0 {
		opts.HeartbeatTimeout = defaultHeartbeatTimeout
	}
	if opts.Network == "" {
		opts.Network = "tcp"
	}
	if opts.Spawn == nil {
		opts.Spawn = InProcSpawner{}
	}
	if opts.Partition == "" {
		opts.Partition = "fm"
	}
	if opts.LPs <= 0 {
		opts.LPs = 4
	}

	h := &hub{opts: opts}
	spec, err := opts.spec()
	if err != nil {
		return nil, err
	}
	if h.run, err = pipeline.Prepare(spec); err != nil {
		return nil, err
	}
	if opts.Restore != nil {
		if err := opts.Restore.Check(h.run.Circuit, opts.System); err != nil {
			return nil, err
		}
	}
	h.gateShard = make([]int, h.run.Circuit.NumGates())
	for g := range h.gateShard {
		h.gateShard[g] = h.run.ShardOf[h.run.Part.Assign[g]]
	}

	h.workDir = opts.WorkDir
	if h.workDir == "" {
		dir, err := os.MkdirTemp("", "parsim-dist-")
		if err != nil {
			return nil, err
		}
		h.workDir = dir
		h.ownDir = true
	} else if err := os.MkdirAll(h.workDir, 0o755); err != nil {
		return nil, err
	}

	laddr := "127.0.0.1:0"
	if opts.Network == "unix" {
		laddr = filepath.Join(h.workDir, "hub.sock")
	}
	if h.ln, err = net.Listen(opts.Network, laddr); err != nil {
		h.close()
		return nil, err
	}
	h.addr = h.ln.Addr().String()
	go h.acceptLoop()
	return h, nil
}

// close releases the listener and (when owned) the work directory.
func (h *hub) close() {
	if h.ln != nil {
		h.ln.Close()
	}
	if h.ownDir {
		os.RemoveAll(h.workDir)
	}
}

// gauge records a run-level metric if a sink is attached.
func (h *hub) gauge(name string, v float64) {
	if h.opts.Metrics != nil {
		h.opts.Metrics.SetGauge(name, v)
	}
}

// jobFor builds shard s's job header for one attempt.
func (h *hub) jobFor(shard, attempt int, bootPath string) *Job {
	o := &h.opts
	ckptDir := ""
	if o.CheckpointEvery > 0 {
		ckptDir = h.workDir
	}
	return &Job{
		Engine: o.Engine, System: uint8(o.System), Queue: o.Queue, Window: o.Window,
		Cancellation: o.Cancellation, StateSaving: o.StateSaving, HistoryLimit: o.HistoryLimit,
		MaxEvents:     o.MaxEvents,
		HangTimeoutMs: o.HangTimeout.Milliseconds(),
		HeartbeatMs:   o.HeartbeatEvery.Milliseconds(),
		Shards:        o.Shards, Shard: shard, Attempt: attempt,
		CheckpointEvery: o.CheckpointEvery, CheckpointDir: ckptDir,
		Boot: bootPath,
		Mesh: o.Mesh, MeshDir: h.workDir, CkptDelta: o.CkptDelta,
	}
}

// acceptLoop admits worker connections for the hub's lifetime; hellos
// that do not match the live attempt (zombies of torn-down fleets) are
// rejected by closing the connection.
func (h *hub) acceptLoop() {
	for {
		c, err := h.ln.Accept()
		if err != nil {
			return
		}
		go h.admit(c)
	}
}

func (h *hub) admit(c net.Conn) {
	hello, err := wire.ReadHello(c)
	if err != nil {
		c.Close()
		return
	}
	h.mu.Lock()
	sess := h.sess
	h.mu.Unlock()
	if sess == nil || int(hello.Attempt) != sess.attempt ||
		hello.Shard < 0 || int(hello.Shard) >= len(sess.links) {
		c.Close()
		return
	}
	sess.links[hello.Shard].ep.Attach(c, hello.RecvSeq)
}

// boot picks the state a launch starts from. launch counts the failed
// attempts before it: 0 for the first fleet, Restarts+1 for the fallback.
// After a failure that is the newest boundary every shard still has; else
// the caller's restore point; else t=0 (nil).
func (h *hub) boot(launch int) (*ckpt.State, error) {
	if launch == 0 || h.opts.CheckpointEvery == 0 {
		return h.opts.Restore, nil
	}
	merged, t, err := latestBoundary(h.workDir, h.opts.Shards, h.gateShard)
	if err != nil {
		return nil, err
	}
	if merged == nil {
		return h.opts.Restore, nil
	}
	h.gauge("dist_boot_time", float64(t))
	return merged, nil
}

// runAttempt launches one fleet and runs it to completion or to the
// first shard-loss verdict.
func (h *hub) runAttempt(attempt int) (*Result, error) {
	boot, err := h.boot(attempt)
	if err != nil {
		return nil, err
	}
	bootPath := ""
	if boot != nil {
		bootPath = filepath.Join(h.workDir, fmt.Sprintf("boot-attempt-%d.json", attempt))
		if err := ckpt.WriteFile(bootPath, boot); err != nil {
			return nil, err
		}
	}
	// One encoding per attempt, shared by every shard's frame.
	run, err := h.run.Encode()
	if err != nil {
		return nil, err
	}

	sess := newSession(h, attempt)
	h.mu.Lock()
	h.sess = sess
	h.mu.Unlock()
	defer func() {
		h.mu.Lock()
		h.sess = nil
		h.mu.Unlock()
		sess.teardown()
	}()

	// Jobs are sent before the workers exist: sequenced frames queue in
	// the endpoint until the worker's connection attaches, so the job is
	// always the first sequenced frame a worker receives.
	for s, link := range sess.links {
		p, err := encodeJob(h.jobFor(s, attempt, bootPath), run)
		if err != nil {
			return nil, err
		}
		if len(p) > wire.MaxPayload {
			return nil, fmt.Errorf("dist: job of %d bytes exceeds the wire's %d-byte frame bound", len(p), wire.MaxPayload)
		}
		link.ep.Send(wire.FJob, p)
	}
	for s, link := range sess.links {
		proc, err := h.opts.Spawn.Spawn(h.opts.Network, h.addr, s, attempt)
		if err != nil {
			return nil, fmt.Errorf("dist: attempt %d: %w", attempt, err)
		}
		link.setProc(proc)
	}

	if h.opts.Engine == "timewarp" || h.opts.Engine == "timewarp-lazy" {
		go sess.gvtDriver()
	}
	go sess.monitor()

	for done := 0; done < len(sess.links); {
		select {
		case <-sess.resCh:
			done++
		case <-sess.failed:
			return nil, sess.err
		}
	}
	for _, link := range sess.links {
		link.ep.Send(wire.FDone, nil)
	}

	res := &Result{Shards: h.opts.Shards, Prepared: h.run}
	numGates := h.run.Circuit.NumGates()
	shardRes := make([]*shardResult, len(sess.links))
	var reconnects uint64
	var meshBytes, fullBytes, deltaBytes, fulls, deltas uint64
	for s, link := range sess.links {
		sr := link.result.Load()
		if sr == nil || len(sr.Values) != numGates {
			return nil, fmt.Errorf("dist: shard %d produced a malformed result", s)
		}
		shardRes[s] = sr
		if circuit.Tick(sr.EndTime) > res.EndTime {
			res.EndTime = circuit.Tick(sr.EndTime)
		}
		res.Events += sr.Events
		reconnects += link.ep.Reconnects()
		meshBytes += sr.MeshBytes
		fullBytes += sr.CkptFullBytes
		deltaBytes += sr.CkptDeltaBytes
		fulls += sr.CkptFulls
		deltas += sr.CkptDeltas
	}
	// Data-plane routing gauges: hub_bytes is FBatch payload the hub
	// relayed, mesh_bytes what flowed shard-to-shard; relay_hops is the
	// data plane's hop count (1 only when the mesh carried everything).
	hubBytes := sess.hubDataBytes.Load()
	h.gauge("hub_bytes", float64(hubBytes))
	h.gauge("mesh_bytes", float64(meshBytes))
	hops := 2.0
	if h.opts.Mesh && hubBytes == 0 {
		hops = 1.0
	}
	h.gauge("relay_hops", hops)
	h.gauge("dist_gvt_rounds", float64(sess.gvtRounds.Load()))
	// Checkpoint volume gauges: delta_ratio is mean delta record size
	// over mean full snapshot size — the incremental saving per boundary.
	h.gauge("ckpt_full_bytes", float64(fullBytes))
	h.gauge("ckpt_delta_bytes", float64(deltaBytes))
	if fulls > 0 && deltas > 0 && fullBytes > 0 {
		h.gauge("delta_ratio", (float64(deltaBytes)/float64(deltas))/(float64(fullBytes)/float64(fulls)))
	}
	if h.run.ConeCount >= 0 {
		h.gauge("cone_count", float64(h.run.ConeCount))
	}
	res.Values = make([]logic.Value, numGates)
	var n int
	for _, sr := range shardRes {
		n += len(sr.Waveform)
	}
	res.Waveform = make(trace.Waveform, 0, n)
	for g := range res.Values {
		res.Values[g] = shardRes[h.gateShard[g]].Values[g]
	}
	for _, sr := range shardRes {
		for _, sm := range sr.Waveform {
			res.Waveform = append(res.Waveform, trace.Sample{
				Time: circuit.Tick(sm.Time), Gate: sm.Gate, Value: sm.Value,
			})
		}
	}
	// Canonical order (time, then gate) matches every engine's merged
	// waveform, so the distributed result is byte-identical in VCD form.
	sort.Slice(res.Waveform, func(i, j int) bool {
		if res.Waveform[i].Time != res.Waveform[j].Time {
			return res.Waveform[i].Time < res.Waveform[j].Time
		}
		return res.Waveform[i].Gate < res.Waveform[j].Gate
	})
	h.gauge("dist_reconnects", float64(reconnects))
	return res, nil
}

// session is one attempt's live state: per-shard links, chaos, verdicts.
type session struct {
	h       *hub
	attempt int
	links   []*shardLink

	resCh  chan struct{} // one tick per shard result
	failed chan struct{} // closed on the first fatal verdict
	err    error
	once   sync.Once
	torn   atomic.Bool

	// hubDataBytes counts FBatch payload relayed through the hub — the
	// data-plane share of hub traffic. Under a healthy mesh it stays 0:
	// every batch takes the direct route.
	hubDataBytes atomic.Uint64
	// gvtRounds counts explicit GVT rounds driven over the wire; the
	// heartbeat piggyback exists to keep this low in steady state.
	gvtRounds atomic.Uint64

	// meshMu guards the mesh address table while workers announce their
	// listeners; when the last address lands the table is broadcast once.
	meshMu    sync.Mutex
	meshAddrs []string
	meshSeen  int
	meshSent  bool
}

// shardLink is one worker's connection, process, chaos state, and
// latest liveness sample.
type shardLink struct {
	ep *wire.Endpoint

	// pmu guards proc: the spawner's worker can connect and trigger a
	// chaos kill before runAttempt stores the Proc handle.
	pmu  sync.Mutex
	proc Proc

	result  atomic.Pointer[shardResult]
	reports chan wire.GVTReport

	hbEvents atomic.Uint64
	hbIdle   atomic.Bool
	// hbSent/hbRecv are the latest piggybacked cumulative wire counters;
	// the GVT driver seeds its two-observation Mattern check from them.
	hbSent atomic.Uint64
	hbRecv atomic.Uint64

	// frames counts inbound frames relayed/handled from this shard;
	// faults lists the plan entries scoped to this shard and attempt, in
	// plan order, each fired at most once. fmu guards frames and fired:
	// the endpoint calls the handler from a reconnect's new read loop
	// while the old one may still be inside it.
	fmu    sync.Mutex
	frames uint64
	faults []netfault.Fault
	fired  []bool
}

func (l *shardLink) setProc(p Proc) {
	l.pmu.Lock()
	l.proc = p
	l.pmu.Unlock()
}

func (l *shardLink) getProc() Proc {
	l.pmu.Lock()
	defer l.pmu.Unlock()
	return l.proc
}

func newSession(h *hub, attempt int) *session {
	sess := &session{
		h:         h,
		attempt:   attempt,
		links:     make([]*shardLink, h.opts.Shards),
		resCh:     make(chan struct{}, h.opts.Shards),
		failed:    make(chan struct{}),
		meshAddrs: make([]string, h.opts.Shards),
	}
	for s := range sess.links {
		link := &shardLink{reports: make(chan wire.GVTReport, 16)}
		for _, f := range h.opts.Plan {
			if f.Shard == s && (f.Attempt == -1 || f.Attempt == attempt) {
				link.faults = append(link.faults, f)
			}
		}
		link.fired = make([]bool, len(link.faults))
		shard := s
		link.ep = wire.New(wire.Config{
			Shard:   shard,
			Handler: func(kind byte, payload []byte) { sess.handle(shard, kind, payload) },
		})
		sess.links[s] = link
	}
	return sess
}

// fail records the attempt's first fatal verdict.
func (s *session) fail(err error) {
	s.once.Do(func() {
		s.err = err
		close(s.failed)
	})
}

// handle processes one frame from shard src on that link's read
// goroutine: fire due chaos faults, then relay or consume the frame.
// Faults fire outside fmu: a stall sleeps on the read goroutine.
func (s *session) handle(src int, kind byte, payload []byte) {
	link := s.links[src]
	var due []netfault.Fault
	link.fmu.Lock()
	link.frames++
	for i, f := range link.faults {
		if link.fired[i] || link.frames <= f.AfterFrames {
			continue
		}
		link.fired[i] = true
		due = append(due, f)
	}
	link.fmu.Unlock()
	for _, f := range due {
		s.fire(link, f)
	}
	switch kind {
	case wire.FBatch:
		dst, err := wire.BatchDst(payload)
		if err != nil {
			s.fail(fmt.Errorf("dist: shard %d sent a malformed batch: %w", src, err))
			return
		}
		if int(dst) < 0 || int(dst) >= len(s.h.run.ShardOf) {
			s.fail(fmt.Errorf("dist: shard %d batched to unknown lp %d", src, dst))
			return
		}
		s.hubDataBytes.Add(uint64(len(payload)))
		s.links[s.h.run.ShardOf[dst]].ep.Send(wire.FBatch, payload)
	case wire.FMeshAddr:
		ma, err := wire.DecodeMeshAddr(payload)
		if err != nil || ma.Shard != src {
			s.fail(fmt.Errorf("dist: shard %d sent a malformed mesh address", src))
			return
		}
		s.meshMu.Lock()
		if s.meshAddrs[src] == "" {
			s.meshAddrs[src] = ma.Addr
			s.meshSeen++
		}
		// Broadcast the routing table exactly once, when the last shard's
		// listener address lands. Workers block in mesh setup until it
		// arrives.
		if s.meshSeen == len(s.links) && !s.meshSent {
			s.meshSent = true
			p := wire.AppendMeshTable(nil, wire.MeshTable{Addrs: s.meshAddrs})
			for _, l := range s.links {
				l.ep.Send(wire.FMeshTable, p)
			}
		}
		s.meshMu.Unlock()
	case wire.FHeartbeat:
		hb, err := wire.DecodeHeartbeat(payload)
		if err != nil {
			return
		}
		link.hbEvents.Store(hb.Events)
		link.hbIdle.Store(hb.Idle)
		link.hbSent.Store(hb.Sent)
		link.hbRecv.Store(hb.Recv)
	case wire.FGVTReport:
		rep, err := wire.DecodeGVTReport(payload)
		if err != nil {
			return
		}
		select {
		case link.reports <- rep:
		default:
		}
	case wire.FResult:
		var sr shardResult
		if err := json.Unmarshal(payload, &sr); err != nil {
			s.fail(fmt.Errorf("dist: shard %d result: %w", src, err))
			return
		}
		link.result.Store(&sr)
		s.resCh <- struct{}{}
	case wire.FError:
		var we wireError
		if err := json.Unmarshal(payload, &we); err != nil {
			s.fail(fmt.Errorf("dist: shard %d error frame: %w", src, err))
			return
		}
		s.fail(we.toError())
	}
}

// fire applies one chaos fault to a shard's link. Stalls sleep on the
// read goroutine (delaying, never reordering, subsequent relays);
// everything else maps to a wire- or process-level primitive.
// Mesh-targeted faults (Peer > 0) are forwarded to the worker as a
// sequenced FChaos order over the control link, and the worker applies
// the primitive to the targeted peer endpoint itself — the hub cannot
// reach a mesh link directly.
func (s *session) fire(link *shardLink, f netfault.Fault) {
	if f.Peer > 0 && f.Op != netfault.OpKill && s.h.opts.Mesh {
		link.ep.Send(wire.FChaos, wire.AppendChaos(nil, wire.Chaos{
			Op: uint8(f.Op), Peer: int32(f.Peer - 1), Ms: f.Ms,
		}))
		return
	}
	d := time.Duration(f.Ms) * time.Millisecond
	switch f.Op {
	case netfault.OpStall:
		time.Sleep(d)
	case netfault.OpDropConn:
		link.ep.ChaosDropConn()
	case netfault.OpDup:
		link.ep.ChaosDup()
	case netfault.OpPartition:
		link.ep.FreezeOut(d)
		link.ep.FreezeIn(d)
	case netfault.OpKill:
		if p := link.getProc(); p != nil {
			p.Kill()
		}
	}
}

// progress sums the fleet's heartbeat-reported work; idle is true only
// when every shard's latest beacon reported all local LPs parked.
func (s *session) progress() (events uint64, idle bool) {
	idle = true
	for _, link := range s.links {
		events += link.hbEvents.Load()
		if !link.hbIdle.Load() {
			idle = false
		}
	}
	return events, idle
}

// monitor watches every result-less shard for death and silence, and
// classifies a loss into a structured shard error: a dead process or
// dead link is a crash; a connected link with no inbound traffic beyond
// the heartbeat timeout is a hang or partition. The verdict carries the
// per-shard transport scoreboard, the same shape the in-process
// watchdog reports.
func (s *session) monitor() {
	period := s.h.opts.HeartbeatTimeout / 4
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-s.failed:
			return
		case <-t.C:
		}
		if s.torn.Load() {
			return
		}
		for shard, link := range s.links {
			if link.result.Load() != nil {
				continue
			}
			if p := link.getProc(); p != nil {
				select {
				case <-p.Done():
					s.fail(s.verdict(shard, supervise.KindInternal,
						fmt.Errorf("dist: shard %d worker died before its result: %v", shard, p.Err())))
					return
				default:
				}
			}
			if link.ep.LastRecvAge() > s.h.opts.HeartbeatTimeout {
				kind := supervise.KindHang
				cause := fmt.Errorf("dist: shard %d silent for over %v (hang or partition)",
					shard, s.h.opts.HeartbeatTimeout)
				if !link.ep.Connected() {
					kind = supervise.KindInternal
					cause = fmt.Errorf("dist: shard %d link down for over %v (crash)",
						shard, s.h.opts.HeartbeatTimeout)
				}
				s.fail(s.verdict(shard, kind, cause))
				return
			}
		}
	}
}

// verdict builds the structured shard-loss error for one lost shard,
// annotated with the whole fleet's transport state.
func (s *session) verdict(shard int, kind supervise.Kind, cause error) error {
	states := make([]supervise.TransportState, len(s.links))
	for i, link := range s.links {
		states[i] = link.ep.State()
	}
	return &supervise.SimError{
		Engine: "dist", LP: shard, Phase: "transport",
		Kind: kind, Cause: fmt.Errorf("%w; fleet transport: %+v", cause, states),
	}
}

// gvtDriver is the hub half of distributed GVT for the optimistic
// engines. Cycles are paced like the single-process coordinator: start
// once the fleet has processed roughly sixteen events per gate since
// the last cycle, immediately when every shard reports idle, or at the
// wall-clock ceiling. Within a cycle, rounds repeat until two
// consecutive rounds are globally quiet with identical, matching
// cumulative wire counters (Mattern-style message counting made stable
// under relay latency); the GVT is then the minimum local minimum of
// the final round.
func (s *session) gvtDriver() {
	threshold := uint64(16 * s.h.run.Circuit.NumGates())
	if threshold < 100_000 {
		threshold = 100_000
	}
	var round uint32
	var lastEvents uint64
	for {
		deadline := time.Now().Add(gvtInterval)
		for {
			if s.dead() {
				return
			}
			ev, idle := s.progress()
			if idle || ev-lastEvents >= threshold || !time.Now().Before(deadline) {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}

		var gvt uint64
		var prev *gvtTotals
		// Steady-state shortcut: when every shard's latest heartbeat
		// reports idle and the piggybacked cumulative wire counters
		// balance, that beacon set is already one quiet Mattern
		// observation. Seeding it as the previous round lets a single
		// explicit round — quiet, with the same matching totals — conclude
		// the cycle: equal monotone counters at two observations mean no
		// message moved in between, so nothing is in transit. The fallback
		// (activity between beacon and round, or stale beacons) is simply
		// the old two-round conversation.
		if hb, ok := s.hbTotals(); ok {
			prev = &hb
		}
		for {
			round++
			s.gvtRounds.Add(1)
			for _, link := range s.links {
				link.ep.Send(wire.FGVTStart, wire.AppendGVTStart(nil, wire.GVTStart{Round: round}))
			}
			tot, ok := s.collect(round)
			if !ok {
				return
			}
			if tot.quiet && tot.sent == tot.recv &&
				prev != nil && prev.quiet && prev.sent == tot.sent && prev.recv == tot.recv {
				gvt = tot.min
				break
			}
			prev = &tot
		}
		lastEvents, _ = s.progress()

		terminate := gvt > uint64(s.h.run.Until)
		for _, link := range s.links {
			link.ep.Send(wire.FGVTDone, wire.AppendGVTDone(nil, wire.GVTDone{GVT: gvt, Terminate: terminate}))
		}
		if terminate {
			return
		}
	}
}

// hbTotals folds the fleet's latest piggybacked heartbeat counters into
// a candidate quiet observation: ok only when every shard's beacon
// reports idle and the cumulative send/receive sums balance.
func (s *session) hbTotals() (gvtTotals, bool) {
	tot := gvtTotals{quiet: true, min: ^uint64(0)}
	for _, link := range s.links {
		if !link.hbIdle.Load() {
			return tot, false
		}
		tot.sent += link.hbSent.Load()
		tot.recv += link.hbRecv.Load()
	}
	return tot, tot.sent == tot.recv
}

// gvtTotals folds one round's per-shard reports.
type gvtTotals struct {
	quiet      bool
	min        uint64
	sent, recv uint64
}

// collect gathers one report per shard for the given round, discarding
// stale rounds; it aborts (ok=false) when the session dies.
func (s *session) collect(round uint32) (gvtTotals, bool) {
	tot := gvtTotals{quiet: true, min: ^uint64(0)}
	for _, link := range s.links {
		for {
			select {
			case rep := <-link.reports:
				if rep.Round != round {
					continue
				}
				if !rep.Quiet {
					tot.quiet = false
				}
				if rep.LocalMin < tot.min {
					tot.min = rep.LocalMin
				}
				tot.sent += rep.Sent
				tot.recv += rep.Recv
			case <-s.failed:
				return tot, false
			}
			break
		}
	}
	return tot, true
}

// dead reports whether the session has failed or been torn down.
func (s *session) dead() bool {
	if s.torn.Load() {
		return true
	}
	select {
	case <-s.failed:
		return true
	default:
		return false
	}
}

// teardown dismantles the fleet: on a failed attempt every worker is
// killed outright; on a clean one they have already been sent FDone and
// get a grace period to exit before the kill. Endpoints close last so
// queued frames (FDone, retransmits) can still drain.
func (s *session) teardown() {
	s.torn.Store(true)
	clean := true
	select {
	case <-s.failed:
		clean = false
	default:
	}
	if !clean {
		for _, link := range s.links {
			if p := link.getProc(); p != nil {
				p.Kill()
			}
		}
	}
	deadline := time.Now().Add(teardownGrace)
	for _, link := range s.links {
		p := link.getProc()
		if p == nil {
			continue
		}
		select {
		case <-p.Done():
		case <-time.After(time.Until(deadline)):
			p.Kill()
			select {
			case <-p.Done():
			case <-time.After(teardownGrace):
			}
		}
	}
	for _, link := range s.links {
		link.ep.Close()
	}
}
