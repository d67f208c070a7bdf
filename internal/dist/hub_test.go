package dist

import (
	"sync"
	"testing"
	"time"

	"repro/internal/dist/wire"
	"repro/internal/simtest/chaos/netfault"
)

// TestHandleConcurrentFramesOneLink calls one link's frame handler from
// several goroutines at once. The endpoint serializes its Handler calls,
// but handle must not depend on it: under -race the frame counter and the
// fired flags must be guarded; every frame must be counted and every due
// fault fired.
func TestHandleConcurrentFramesOneLink(t *testing.T) {
	const readers, frames = 4, 200
	var plan netfault.Plan
	for i := 0; i < 8; i++ {
		// Zero-length stalls: firing is a no-op beyond the bookkeeping.
		plan = append(plan, netfault.Fault{Op: netfault.OpStall, AfterFrames: uint64(i * 90), Attempt: -1})
	}
	sess := newSession(&hub{opts: Options{Shards: 1, Plan: plan}}, 0)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < frames; i++ {
				// A malformed heartbeat is counted, then dropped.
				sess.handle(0, wire.FHeartbeat, nil)
			}
		}()
	}
	wg.Wait()
	link := sess.links[0]
	if link.frames != readers*frames {
		t.Fatalf("counted %d frames, want %d", link.frames, readers*frames)
	}
	for i, fired := range link.fired {
		if !fired {
			t.Fatalf("fault %d (after %d frames) never fired", i, link.faults[i].AfterFrames)
		}
	}
}

// firstFrameSpawner starts workers in process, but returns the handle of
// one shard's first worker only once the hub has handled that worker's
// first frame, a batch (the session counts a batch's bytes after firing
// the frame's faults). A kill planted at that frame falls due while the
// hub holds no handle to kill.
type firstFrameSpawner struct {
	h     *hub
	shard int
}

func (s *firstFrameSpawner) Spawn(network, addr string, shard, attempt int) (Proc, error) {
	p, err := InProcSpawner{}.Spawn(network, addr, shard, attempt)
	if err != nil || shard != s.shard || attempt != 0 {
		return p, err
	}
	s.h.mu.Lock()
	sess := s.h.sess
	s.h.mu.Unlock()
	for deadline := time.Now().Add(10 * time.Second); sess.hubDataBytes.Load() == 0 && time.Now().Before(deadline); {
		select {
		case <-p.Done():
			return p, nil
		case <-time.After(time.Millisecond):
		}
	}
	return p, nil
}

// TestKillDueBeforeSpawnReturnsRecovers plants a kill at shard 0's first
// frame and lets that frame be handled before the spawner returns the
// worker's handle: the kill must still land and cost one recovery.
func TestKillDueBeforeSpawnReturnsRecovers(t *testing.T) {
	until, ref := golden(t)
	opts := baseOpts(t, "cmb", 2, until)
	opts.Restarts = 1
	opts.HeartbeatEvery = time.Hour
	opts.Plan = netfault.Plan{{Op: netfault.OpKill, Shard: 0, AfterFrames: 0, Attempt: 0}}
	sp := &firstFrameSpawner{shard: 0}
	opts.Spawn = sp
	h, err := newHub(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	sp.h = h
	res, err := h.supervise()
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", res.Recoveries)
	}
	checkMatchesGolden(t, res, ref)
}
