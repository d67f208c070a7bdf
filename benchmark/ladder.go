package main

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/circuit"
	"repro/internal/dist/wire"
	"repro/internal/eventq"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/metrics"
	"repro/internal/mpsc"
	"repro/internal/sim/ckpt"
	"repro/internal/sim/kernel"
	"repro/internal/sim/seq"
	"repro/internal/vectors"
)

// The ladder is a set of direct calls on fixed fixtures, one rung per
// layer below the engines. Fixtures do not depend on -seed: a rung moves
// only when its layer's code does. Each rung takes ladderSamples samples
// of a batch sized to last about ladderSample.

const (
	ladderSamples = 10
	ladderSample  = 10 * time.Millisecond
)

// ladderResult holds the rungs' samples, keyed by metric name, and the
// allocations per operation of every timed rung.
type ladderResult struct {
	samples map[string][]float64
	allocs  map[string]float64
}

// timeRung calibrates a batch size n so that op(n) lasts about
// ladderSample, then times `samples` batches. It returns ns per operation
// for each batch and the mean allocations per operation.
func timeRung(samples int, op func(n int)) (nsPerOp []float64, allocsPerOp float64) {
	n := 1
	for n < 1<<24 {
		start := time.Now()
		op(n)
		if time.Since(start) >= ladderSample || samples == 1 {
			break
		}
		n *= 2
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for i := 0; i < samples; i++ {
		start := time.Now()
		op(n)
		nsPerOp = append(nsPerOp, float64(time.Since(start))/float64(n))
	}
	runtime.ReadMemStats(&ms)
	return nsPerOp, float64(ms.Mallocs-before) / float64(samples*n)
}

func scale(vs []float64, k float64) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = v * k
	}
	return out
}

// Sinks keep the compiler from deleting the measured calls.
var (
	sinkValue logic.Value
	sinkWord  logic.Word
)

// runLadder measures every rung. sockPath is where the wire rung's unix
// socket lives; samples is 1 under -smoke.
func runLadder(samples int, sockPath string) (*ladderResult, error) {
	r := &ladderResult{samples: map[string][]float64{}, allocs: map[string]float64{}}
	add := func(name string, perOp float64, op func(n int)) {
		ns, allocs := timeRung(samples, op)
		r.samples[name], r.allocs[name] = scale(ns, perOp), allocs
	}

	// Four scalar table lookups per iteration over all 81 value pairs.
	add("logic_op_ns", 1.0/4, func(n int) {
		v := sinkValue
		for i := 0; i < n; i++ {
			a, b := logic.Value(i%int(logic.NumValues)), logic.Value(i/9%int(logic.NumValues))
			v = logic.And(a, logic.Or(b, logic.Xor(v, logic.Not(b))))
		}
		sinkValue = v
	})
	// The same four operations on 64-lane words.
	add("logic_wide_op_ns", 1.0/4, func(n int) {
		v, a, b := sinkWord, logic.PackBits(0xAAAA5555AAAA5555), logic.Splat(logic.X)
		for i := 0; i < n; i++ {
			a.L, b.H = a.L+uint64(i), b.H^a.L
			v = logic.WideAnd(a, logic.WideOr(b, logic.WideXor(v, logic.WideNot(b))))
		}
		sinkWord = v
	})

	if err := kernelRung(r, samples); err != nil {
		return nil, err
	}

	for _, impl := range []eventq.Impl{eventq.ImplHeap, eventq.ImplCalendar, eventq.ImplWheel} {
		// The classic hold model: pop the minimum, push it back a little
		// later, on a queue holding 512 events.
		q := eventq.New[int](impl)
		for i := 0; i < 512; i++ {
			q.Push(uint64(i%61), i)
		}
		add("eventq_hold_ns."+impl.String(), 1, func(n int) {
			for i := 0; i < n; i++ {
				t, v, _ := q.PopMin()
				q.Push(t+1+uint64(v%7), v)
			}
		})
		if err := q.Err(); err != nil {
			return nil, fmt.Errorf("eventq %s: %w", impl, err)
		}
	}

	// One goroutine PutAlls batches of 16, this one WaitDrains them.
	type msg struct {
		time  uint64
		gate  int32
		value logic.Value
	}
	const batch = 16
	mb := mpsc.New[msg]()
	var drained []msg
	add("mpsc_msg_ns", 1.0/batch, func(n int) {
		done := make(chan struct{})
		go func() {
			defer close(done)
			var out [batch]msg
			for i := 0; i < n; i++ {
				mb.PutAll(out[:])
			}
		}()
		for got := 0; got < n*batch; got += len(drained) {
			drained, _ = mb.WaitDrain(drained[:0])
		}
		<-done
	})

	if err := wireRung(r, samples, sockPath); err != nil {
		return nil, fmt.Errorf("wire rung: %w", err)
	}
	if err := ckptRung(r, samples); err != nil {
		return nil, fmt.Errorf("ckpt rung: %w", err)
	}
	return r, nil
}

// kernelRung times one warm LP timestep (apply + evaluate) on a 400-gate
// DAG whose inputs all toggle every step.
func kernelRung(r *ladderResult, samples int) error {
	c, err := gen.RandomDAG(gen.RandomConfig{Gates: 400, Inputs: 16, Outputs: 8, Locality: 0.6, Seed: 7})
	if err != nil {
		return err
	}
	owner := make([]int, len(c.Gates))
	own := make([]circuit.GateID, len(c.Gates))
	for g := range own {
		own[g] = circuit.GateID(g)
	}
	lp := kernel.New(c, owner, 0, logic.TwoValued, nil, own)
	lp.Schedule = func(circuit.Tick, circuit.GateID, logic.Value) {}
	lp.Send = func(int, circuit.Tick, circuit.GateID, logic.Value) {}
	var evs [2][]kernel.Event
	for i, in := range c.Inputs {
		v := logic.FromBool(i%2 == 0)
		evs[0] = append(evs[0], kernel.Event{Gate: in, Value: v})
		evs[1] = append(evs[1], kernel.Event{Gate: in, Value: logic.Not(v)})
	}
	var st metrics.LPCounters
	lp.Step(0, evs[0], true, nil, &st)
	st = metrics.LPCounters{}
	steps, t := 0, circuit.Tick(1)
	ns, allocs := timeRung(samples, func(n int) {
		for i := 0; i < n; i++ {
			lp.Step(t, evs[int(t)%2], false, nil, &st)
			t++
		}
		steps += n
	})
	evalsPerStep := float64(st.Evaluations) / float64(steps)
	r.samples["kernel_step_ns_per_eval"] = scale(ns, 1/evalsPerStep)
	r.samples["kernel_step_allocs"] = []float64{allocs}
	r.allocs["kernel_step_ns_per_eval"] = allocs
	return nil
}

// wireRung times one sequenced FBatch frame from a dialing Endpoint to an
// accepting one over a unix socket (encode, send, deliver, decode), plus
// one heartbeat encode and decode.
func wireRung(r *ladderResult, samples int, sockPath string) error {
	ln, err := net.Listen("unix", sockPath)
	if err != nil {
		return err
	}
	var delivered atomic.Int64
	arrived := make(chan struct{}, 1) // holds at most one pending wake-up
	server := wire.New(wire.Config{Shard: 0, Handler: func(kind byte, payload []byte) {
		if kind != wire.FBatch {
			return
		}
		if _, _, err := wire.DecodeBatch(payload); err == nil {
			delivered.Add(1)
		}
		select {
		case arrived <- struct{}{}:
		default:
		}
	}})
	accepted := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			accepted <- err
			return
		}
		hello, err := wire.ReadHello(conn)
		if err != nil {
			conn.Close()
			accepted <- err
			return
		}
		accepted <- server.Attach(conn, hello.RecvSeq)
	}()
	client := wire.New(wire.Config{
		Shard: -1, Hello: wire.Hello{Shard: 0},
		Dial: func() (net.Conn, error) { return net.Dial("unix", sockPath) },
	})
	defer func() {
		ln.Close()
		client.Close()
		server.Close()
	}()
	if err := client.Connect(); err != nil {
		return err
	}
	if err := <-accepted; err != nil {
		return err
	}

	ms := make([]wire.Msg, 8)
	for i := range ms {
		ms[i] = wire.Msg{Kind: 1, From: 0, Time: uint64(i), Gate: int32(i), Value: uint8(logic.One)}
	}
	var hb []byte
	var sendErr error
	ns, allocs := timeRung(samples, func(n int) {
		want := delivered.Load() + int64(n)
		for i := 0; i < n; i++ {
			hb = wire.AppendHeartbeat(hb[:0], wire.Heartbeat{Events: uint64(i), Sent: uint64(i)})
			if _, err := wire.DecodeHeartbeat(hb); err != nil {
				sendErr = err
			}
			// Send retains the payload until it is acknowledged, so each
			// frame gets its own.
			if err := client.Send(wire.FBatch, wire.AppendBatch(nil, 1, ms)); err != nil {
				sendErr = err
				return
			}
		}
		deadline := time.After(30 * time.Second)
		for delivered.Load() < want {
			select {
			case <-arrived:
			case <-deadline:
				sendErr = fmt.Errorf("%d of %d frames delivered", n-int(want-delivered.Load()), n)
				return
			}
		}
	})
	if sendErr != nil {
		return sendErr
	}
	r.samples["wire_frame_ns"], r.allocs["wire_frame_ns"] = ns, allocs
	return nil
}

// ckptRung takes two consecutive boundary snapshots of a sequential run
// on a 2000-gate DAG, then times a full snapshot's write and read and a
// delta record's application.
func ckptRung(r *ladderResult, samples int) error {
	c, err := gen.RandomDAG(gen.RandomConfig{Gates: 2000, Inputs: 32, Outputs: 16, Locality: 0.6, Seed: 7})
	if err != nil {
		return err
	}
	stim, err := vectors.Random(c, vectors.RandomConfig{Vectors: 20, Period: period, Activity: 0.5, Seed: 7})
	if err != nil {
		return err
	}
	var states []*ckpt.State
	_, err = seq.Run(c, stim, seq.Horizon(c, stim), seq.Config{
		System: logic.NineValued, CheckpointEvery: 5 * period,
		Checkpoint: func(s *ckpt.State) error {
			s.Seal()
			states = append(states, s)
			return nil
		},
	})
	if err != nil {
		return err
	}
	if len(states) < 2 {
		return fmt.Errorf("sequential run crossed %d checkpoint boundaries, want 2", len(states))
	}
	base, cur := states[0], states[1]
	delta, err := ckpt.DeltaFrom(base, cur)
	if err != nil {
		return err
	}

	var buf bytes.Buffer
	var opErr error
	ns, allocs := timeRung(samples, func(n int) {
		for i := 0; i < n; i++ {
			buf.Reset()
			if err := ckpt.Write(&buf, cur); err != nil {
				opErr = err
			}
			if _, err := ckpt.Read(&buf); err != nil {
				opErr = err
			}
		}
	})
	r.samples["ckpt_write_read_ns"], r.allocs["ckpt_write_read_ns"] = ns, allocs
	ns, allocs = timeRung(samples, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := delta.Apply(base); err != nil {
				opErr = err
			}
		}
	})
	r.samples["ckpt_delta_apply_ns"], r.allocs["ckpt_delta_apply_ns"] = ns, allocs
	if opErr != nil {
		return opErr
	}

	buf.Reset()
	if err := ckpt.Write(&buf, cur); err != nil {
		return err
	}
	r.samples["ckpt_fixture_full_bytes"] = []float64{float64(buf.Len())}
	buf.Reset()
	if err := ckpt.WriteDelta(&buf, delta); err != nil {
		return err
	}
	r.samples["ckpt_fixture_delta_bytes"] = []float64{float64(buf.Len())}
	return nil
}
