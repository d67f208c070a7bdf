package supervise

import (
	"encoding/json"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// A distributed hang must be diagnosable from the report alone: the
// watchdog attaches per-shard transport state (connection status,
// heartbeat age, unacked backlog) when the engine provides a probe.
func TestWatchdogReportCarriesTransportState(t *testing.T) {
	b := NewBoard(1)
	var got atomic.Value
	wd := Watch(WatchConfig{
		Engine:  "dist-test",
		Timeout: 30 * time.Millisecond,
		Board:   b,
		Transport: func() []TransportState {
			return []TransportState{
				{Shard: 0, Connected: true, LastHeartbeatMs: 12, UnackedBatches: 0, Reconnects: 1},
				{Shard: 1, Connected: false, LastHeartbeatMs: 950, UnackedBatches: 7, Reconnects: 3,
					Frames: 4096, Retransmits: 12, DupsDropped: 5},
			}
		},
		OnHang: func(err error) { got.Store(err) },
	})
	defer wd.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for got.Load() == nil && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	err, _ := got.Load().(error)
	if err == nil {
		t.Fatal("watchdog did not fire")
	}
	var hr *HangReport
	if !errors.As(err, &hr) {
		t.Fatalf("cause is not a HangReport: %v", err)
	}
	msg := hr.Error()
	idx := strings.Index(msg, "{")
	if idx < 0 {
		t.Fatalf("no JSON body in %q", msg)
	}
	var decoded HangReport
	if err := json.Unmarshal([]byte(msg[idx:]), &decoded); err != nil {
		t.Fatalf("report body does not parse: %v", err)
	}
	if len(decoded.Transport) != 2 {
		t.Fatalf("transport entries = %d, want 2", len(decoded.Transport))
	}
	dead := decoded.Transport[1]
	if dead.Shard != 1 || dead.Connected || dead.LastHeartbeatMs != 950 || dead.UnackedBatches != 7 || dead.Reconnects != 3 {
		t.Errorf("dead-link entry wrong: %+v", dead)
	}
	// Per-link traffic stats must survive the JSON round trip under
	// their wire names, so a hang report distinguishes a link that never
	// carried traffic from one that degraded mid-run.
	if dead.Frames != 4096 || dead.Retransmits != 12 || dead.DupsDropped != 5 {
		t.Errorf("link stats wrong after round trip: %+v", dead)
	}
	for _, field := range []string{`"frames":4096`, `"retransmits":12`, `"dups_dropped":5`} {
		if !strings.Contains(msg[idx:], field) {
			t.Errorf("report JSON missing %s", field)
		}
	}
}
