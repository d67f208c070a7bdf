package dist

import (
	"sync"
	"testing"

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
