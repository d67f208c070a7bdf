package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dist/wire"
	"repro/internal/metrics"
	"repro/internal/sim/ckpt"
	"repro/internal/sim/seq"
	"repro/internal/sim/supervise"
)

// jobWait bounds how long a connected worker waits for its FJob frame.
const jobWait = 30 * time.Second

// resultLinger bounds how long a finished worker waits for the hub's
// FDone before exiting anyway (the result frame is sequenced, so the
// linger exists only to keep the connection up for retransmits).
const resultLinger = 60 * time.Second

// ErrKilled is the failure a forcibly killed in-process worker reports.
var ErrKilled = errors.New("dist: worker killed")

// bufferedFrame is one frame received before the seam existed.
type bufferedFrame struct {
	kind    byte
	payload []byte
}

// Worker is one shard of a distributed run: it dials the coordinator,
// receives its job — header and prepared workload in one frame — decodes
// and verifies it, writes shard-restricted checkpoints via a sequential
// shadow, runs its engine over the local LPs through core's dispatch, and
// reports the shard result.
type Worker struct {
	network string
	addr    string
	shard   int
	attempt int

	ep *wire.Endpoint

	// mu guards seam, preSeam, and mesh: frames can arrive (on the
	// endpoint read goroutine) before the job does, and the seam cannot
	// exist until the job's partition is decoded. Batches and GVT commands
	// that arrive early are buffered and replayed through the seam at
	// install time, under the same lock, so no sequenced frame is ever
	// dropped and order is preserved.
	mu      sync.Mutex
	seam    *wire.Seam
	preSeam []bufferedFrame
	mesh    *meshNet

	jobCh    chan []byte
	meshCh   chan wire.MeshTable
	doneCh   chan struct{}
	doneOnce sync.Once
	downCh   chan struct{}
	downOnce sync.Once
	downErr  error
}

// NewWorker creates a worker that will dial addr on network and
// identify itself as (shard, attempt). Run drives it to completion.
func NewWorker(network, addr string, shard, attempt int) *Worker {
	w := &Worker{
		network: network,
		addr:    addr,
		shard:   shard,
		attempt: attempt,
		jobCh:   make(chan []byte, 1),
		meshCh:  make(chan wire.MeshTable, 1),
		doneCh:  make(chan struct{}),
		downCh:  make(chan struct{}),
	}
	w.ep = wire.New(wire.Config{
		Shard: -1, // the peer is the coordinator
		Dial:  func() (net.Conn, error) { return net.Dial(network, addr) },
		Hello: wire.Hello{Shard: int32(shard), Attempt: int32(attempt)},
		// Generous redial budget with tight pacing: chaos connection
		// drops must be ridden out quickly, while a truly dead hub still
		// fails the link inside a few seconds.
		MaxRedials: 60,
		RedialBase: 5 * time.Millisecond,
		RedialCap:  250 * time.Millisecond,
		Handler:    w.handle,
		OnDown:     w.onDown,
	})
	return w
}

// Kill forces the worker down, as close to SIGKILL as an in-process
// worker gets: the link fails permanently, the engine aborts through
// the seam's OnDown hook, and Run returns promptly.
func (w *Worker) Kill() { w.ep.Fail(ErrKilled) }

// handle dispatches one delivered frame on the endpoint read goroutine.
func (w *Worker) handle(kind byte, payload []byte) {
	w.mu.Lock()
	seam := w.seam
	if seam == nil {
		switch kind {
		case wire.FBatch, wire.FGVTStart, wire.FGVTDone:
			w.preSeam = append(w.preSeam, bufferedFrame{kind: kind, payload: payload})
			w.mu.Unlock()
			return
		}
	}
	w.mu.Unlock()
	if seam != nil && seam.HandleFrame(kind, payload) {
		return
	}
	switch kind {
	case wire.FJob:
		select {
		case w.jobCh <- payload:
		default:
		}
	case wire.FMeshTable:
		if t, err := wire.DecodeMeshTable(payload); err == nil {
			select {
			case w.meshCh <- t:
			default:
			}
		}
	case wire.FChaos:
		co, err := wire.DecodeChaos(payload)
		if err != nil {
			return
		}
		w.mu.Lock()
		m := w.mesh
		w.mu.Unlock()
		if m != nil {
			m.applyChaos(co)
		}
	case wire.FDone:
		w.doneOnce.Do(func() { close(w.doneCh) })
	}
}

// onDown records the permanent link failure and propagates it.
func (w *Worker) onDown(err error) {
	w.mu.Lock()
	seam := w.seam
	w.mu.Unlock()
	if seam != nil {
		seam.Down(err)
	}
	w.downOnce.Do(func() {
		w.downErr = err
		close(w.downCh)
	})
}

// installSeam publishes the seam and replays every buffered frame
// through it, under the lock, so buffered and live frames cannot
// interleave out of order.
func (w *Worker) installSeam(s *wire.Seam) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.seam = s
	for _, fr := range w.preSeam {
		s.HandleFrame(fr.kind, fr.payload)
	}
	w.preSeam = nil
}

// Run connects, receives the job, and executes the shard to completion.
// The returned error is the worker's local verdict; the hub learns of
// failures through the FError frame (or through silence).
func (w *Worker) Run() error {
	defer w.ep.Close()
	if err := w.ep.Connect(); err != nil {
		return err
	}
	var payload []byte
	select {
	case payload = <-w.jobCh:
	case <-w.downCh:
		return w.downErr
	case <-time.After(jobWait):
		return fmt.Errorf("dist: worker shard %d: no job within %v", w.shard, jobWait)
	}
	job, run, err := decodeJob(payload)
	if err != nil {
		return w.sendError(err)
	}
	opts, err := job.engineOptions()
	if err != nil {
		return w.sendError(err)
	}
	c, part, shardOf := run.Circuit, run.Part, run.ShardOf
	seam := wire.NewSeam(w.ep, job.Shard, shardOf)
	w.installSeam(seam)

	stopHB := make(chan struct{})
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		t := time.NewTicker(job.Heartbeat())
		defer t.Stop()
		for {
			select {
			case <-stopHB:
				return
			case <-t.C:
				ev, idle := seam.Progress()
				// Piggyback the cumulative wire counters on the beacon so
				// the hub can observe a stable Mattern cut without extra
				// round-trips in steady state.
				sent, recv := seam.SentRecv()
				w.ep.SendUnseq(wire.FHeartbeat,
					wire.AppendHeartbeat(nil, wire.Heartbeat{Events: ev, Idle: idle, Sent: sent, Recv: recv}))
			}
		}
	}()
	defer func() {
		close(stopHB)
		hbWG.Wait()
	}()

	// Mesh handshake: announce the listener, wait for the hub's routing
	// table, then connect exactly the cut-edge neighbors. This completes
	// before the checkpoint shadow and the engine, so every FBatch the
	// engine sends already has its direct route installed.
	if job.Mesh && job.Shards > 1 {
		adj := meshNeighbors(c, part.Assign, shardOf, job.Shards)
		m, err := newMeshNet(w.network, job.MeshDir, job, seam, adj[job.Shard])
		if err != nil {
			return w.sendError(err)
		}
		defer m.close()
		w.mu.Lock()
		w.mesh = m
		w.mu.Unlock()
		deadline := time.Now().Add(meshSetupWait)
		if err := w.ep.Send(wire.FMeshAddr,
			wire.AppendMeshAddr(nil, wire.MeshAddr{Shard: job.Shard, Addr: m.Addr()})); err != nil {
			return w.sendError(err)
		}
		var table wire.MeshTable
		select {
		case table = <-w.meshCh:
		case <-w.downCh:
			return w.downErr
		case <-time.After(meshSetupWait):
			return w.sendError(fmt.Errorf("dist: shard %d: no mesh table within %v", job.Shard, meshSetupWait))
		}
		if err := m.connect(w.network, table, adj[job.Shard], deadline); err != nil {
			return w.sendError(err)
		}
	}

	var boot *ckpt.State
	if job.Boot != "" {
		boot, err = ckpt.ReadFile(job.Boot)
		if err != nil {
			return w.sendError(err)
		}
		if err := boot.Check(c, opts.System); err != nil {
			return w.sendError(err)
		}
	}
	opts.Restore = boot
	owned := ownedGates(part.Assign, shardOf, job.Shard, c.NumGates())

	// Sequential shadow: replay the trajectory and persist this
	// shard's restriction of every boundary snapshot before the engine
	// runs. Every engine reproduces the sequential trajectory exactly,
	// so these cuts are valid restore points no matter which engine (or
	// which attempt) later boots from them. Inbound batches arriving
	// during this phase park in the seam's pending buffers.
	var ckptFullBytes, ckptDeltaBytes, ckptFulls, ckptDeltas uint64
	if job.CheckpointEvery > 0 && job.CheckpointDir != "" {
		if err := os.MkdirAll(job.CheckpointDir, 0o755); err != nil {
			return w.sendError(err)
		}
		// In delta mode the first boundary of each attempt is a full
		// snapshot and every later one a delta chained to its sealed
		// predecessor. A delta's base is always the boundary one interval
		// earlier on the deterministic trajectory, so delta files — like
		// full ones — are attempt-independent and safely overwrite stale
		// copies from torn-down attempts.
		var last *ckpt.State
		_, err := seq.Run(c, run.Stim, run.Until, seq.Config{
			System:          opts.System,
			Queue:           opts.Queue,
			MaxEvents:       job.MaxEvents,
			CheckpointEvery: circuit.Tick(job.CheckpointEvery),
			Checkpoint: func(st *ckpt.State) error {
				cur := restrictToShard(st, owned)
				if !job.CkptDelta || last == nil {
					path := filepath.Join(job.CheckpointDir, shardCkptName(job.Shard, cur.Time))
					if err := ckpt.WriteFile(path, cur); err != nil {
						return err
					}
					ckptFullBytes += fileSize(path)
					ckptFulls++
				} else {
					d, err := ckpt.DeltaFrom(last, cur)
					if err != nil {
						return err
					}
					path := filepath.Join(job.CheckpointDir, shardDeltaName(job.Shard, cur.Time))
					if err := ckpt.WriteDeltaFile(path, d); err != nil {
						return err
					}
					ckptDeltaBytes += fileSize(path)
					ckptDeltas++
				}
				last = cur
				return nil
			},
			Boot: boot,
		})
		if err != nil {
			return w.sendError(err)
		}
	}

	rep, err := core.RunShard(run, opts, seam)
	if err != nil {
		var se *supervise.SimError
		if !errors.As(err, &se) {
			// Not a failure of the run but a refusal to start it: the
			// engine rejects this configuration, and would again.
			err = &jobRejected{err.Error()}
		}
		return w.sendError(err)
	}

	// The shard waveform is absolute: every owned-gate sample from t=0
	// through the horizon. core splices the boot prefix onto the engine's
	// post-boot suffix; filtering the whole to owned gates makes the hub's
	// merge a plain union.
	samples := make([]wfSample, 0, len(rep.Waveform))
	for _, sm := range rep.Waveform {
		if owned[sm.Gate] {
			samples = append(samples, wfSample{Time: uint64(sm.Time), Gate: sm.Gate, Value: sm.Value})
		}
	}
	res := shardResult{
		Shard:          job.Shard,
		Values:         rep.Values,
		Waveform:       samples,
		EndTime:        uint64(rep.EndTime),
		Events:         appliedEvents(rep.Stats.LPs),
		MeshBytes:      seam.MeshBytes(),
		CkptFullBytes:  ckptFullBytes,
		CkptDeltaBytes: ckptDeltaBytes,
		CkptFulls:      ckptFulls,
		CkptDeltas:     ckptDeltas,
	}
	rp, err := json.Marshal(&res)
	if err != nil {
		return w.sendError(err)
	}
	if err := w.ep.Send(wire.FResult, rp); err != nil {
		return err
	}
	select {
	case <-w.doneCh:
	case <-w.downCh:
	case <-time.After(resultLinger):
	}
	return nil
}

// appliedEvents sums committed net changes across the shard's LPs.
func appliedEvents(lps []metrics.LPCounters) uint64 {
	var n uint64
	for _, lp := range lps {
		n += lp.EventsApplied
	}
	return n
}

// jobRejected is a worker's verdict that its engine refuses the job as
// configured (for example Time Warp's memory throttle, which a shard
// cannot run). It repeats on every attempt and under every engine the
// fleet could restart with, so the hub fails the run with it instead of
// restarting or degrading.
type jobRejected struct{ cause string }

func (e *jobRejected) Error() string { return e.cause }

// sendError flattens the failure into an FError frame (best effort; the
// hub also notices dead links without one) and returns it.
func (w *Worker) sendError(err error) error {
	we := wireError{Engine: "dist", LP: -1, Cause: err.Error()}
	var se *supervise.SimError
	var rej *jobRejected
	switch {
	case errors.As(err, &se):
		we = wireError{
			Engine:      se.Engine,
			LP:          se.LP,
			Phase:       se.Phase,
			ModeledTime: uint64(se.ModeledTime),
			Kind:        uint8(se.Kind),
			Cause:       se.Error(),
		}
	case errors.As(err, &rej):
		we.Rejected = true
	}
	if p, merr := json.Marshal(&we); merr == nil {
		w.ep.Send(wire.FError, p)
	}
	return err
}

// toError rebuilds a worker's verdict from its FError payload: the
// structured simulation error, or the job rejection.
func (e *wireError) toError() error {
	if e.Rejected {
		return &jobRejected{e.Cause}
	}
	return &supervise.SimError{
		Engine:      e.Engine,
		LP:          e.LP,
		Phase:       e.Phase,
		ModeledTime: circuit.Tick(e.ModeledTime),
		Kind:        supervise.Kind(e.Kind),
		Cause:       errors.New(e.Cause),
	}
}
