package dist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/logic"
	"repro/internal/sim/ckpt"
)

// Shard checkpointing. Every worker runs the sequential shadow over the
// whole circuit (the trajectory is deterministic, so each shard's copy
// of the shadow computes the same cut) but persists only its own
// restriction of each boundary snapshot: value planes zeroed outside
// owned gates, pending events and waveform samples filtered to owned
// gates. The waveform restriction is absolute — all own-gate samples
// from t=0 through the boundary, including any booted prefix — so a
// boundary file's content depends only on (workload, boundary, shard),
// never on which attempt wrote it. That makes stale files from
// torn-down attempts indistinguishable from fresh ones, and lets the
// hub merge any boundary that is complete across shards: plane
// stitching by gate owner, event and sample union, one checksum reseal.
//
// A truncated or bit-flipped shard file surfaces as ckpt.ErrCorrupt at
// read time; the merge skips that boundary and falls back to the next
// older one, down to a fresh start when nothing survives.

// shardCkptName names shard s's full snapshot at boundary t.
func shardCkptName(shard int, t uint64) string {
	return fmt.Sprintf("shard-%03d-ckpt-%010d.json", shard, t)
}

// shardDeltaName names shard s's incremental record at boundary t.
func shardDeltaName(shard int, t uint64) string {
	return fmt.Sprintf("shard-%03d-delta-%010d.json", shard, t)
}

// fileSize is best-effort on-disk size accounting for the checkpoint
// volume gauges (0 when unreadable — never an error path).
func fileSize(path string) uint64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return uint64(fi.Size())
}

// restrictToShard projects a full shadow snapshot onto one shard: owned
// planes kept (others zeroed), events and waveform filtered to owned
// gates, checksum resealed.
func restrictToShard(st *ckpt.State, owned []bool) *ckpt.State {
	out := &ckpt.State{
		Version: st.Version, Fingerprint: st.Fingerprint,
		Time: st.Time, Until: st.Until, System: st.System, EndTime: st.EndTime,
		Vals:      make([]logic.Value, len(st.Vals)),
		PrevClk:   make([]logic.Value, len(st.PrevClk)),
		Projected: make([]logic.Value, len(st.Projected)),
	}
	for g, own := range owned {
		if !own {
			continue
		}
		out.Vals[g] = st.Vals[g]
		out.PrevClk[g] = st.PrevClk[g]
		out.Projected[g] = st.Projected[g]
	}
	for _, ev := range st.Events {
		if owned[ev.Gate] {
			out.Events = append(out.Events, ev)
		}
	}
	for _, sm := range st.Waveform {
		if owned[sm.Gate] {
			out.Waveform = append(out.Waveform, sm)
		}
	}
	out.Seal()
	return out
}

// mergeShardStates stitches per-shard restrictions of one boundary back
// into a full consistent cut: planes by gate owner, events and waveform
// unioned and canonically sorted.
func mergeShardStates(states []*ckpt.State, gateShard []int) (*ckpt.State, error) {
	if len(states) == 0 {
		return nil, fmt.Errorf("dist: merge of zero shard states")
	}
	base := states[0]
	n := len(base.Vals)
	merged := &ckpt.State{
		Version: base.Version, Fingerprint: base.Fingerprint,
		Time: base.Time, Until: base.Until, System: base.System,
		Vals:      make([]logic.Value, n),
		PrevClk:   make([]logic.Value, n),
		Projected: make([]logic.Value, n),
	}
	for s, st := range states {
		if st.Time != base.Time || st.Fingerprint != base.Fingerprint || st.System != base.System {
			return nil, fmt.Errorf("dist: shard %d snapshot disagrees with shard 0 (t=%d vs %d, fp %s vs %s)",
				s, st.Time, base.Time, st.Fingerprint, base.Fingerprint)
		}
		if len(st.Vals) != n {
			return nil, fmt.Errorf("dist: shard %d snapshot sized %d, want %d", s, len(st.Vals), n)
		}
		if st.EndTime > merged.EndTime {
			merged.EndTime = st.EndTime
		}
		merged.Events = append(merged.Events, st.Events...)
		merged.Waveform = append(merged.Waveform, st.Waveform...)
	}
	for g := 0; g < n; g++ {
		st := states[gateShard[g]]
		merged.Vals[g] = st.Vals[g]
		merged.PrevClk[g] = st.PrevClk[g]
		merged.Projected[g] = st.Projected[g]
	}
	sort.Slice(merged.Events, func(i, j int) bool {
		if merged.Events[i].Time != merged.Events[j].Time {
			return merged.Events[i].Time < merged.Events[j].Time
		}
		return merged.Events[i].Gate < merged.Events[j].Gate
	})
	// Canonical waveform order (time, then gate) matches trace.Merge, so
	// a spliced prefix is byte-identical to an uninterrupted run's.
	sort.Slice(merged.Waveform, func(i, j int) bool {
		if merged.Waveform[i].Time != merged.Waveform[j].Time {
			return merged.Waveform[i].Time < merged.Waveform[j].Time
		}
		return merged.Waveform[i].Gate < merged.Waveform[j].Gate
	})
	merged.Seal()
	return merged, nil
}

// latestBoundary scans the checkpoint directory for the newest boundary
// reconstructible for every shard — from a full snapshot directly, or
// by replaying a fingerprint-chained delta sequence down to one — and
// returns the merged cut. Boundaries with missing, truncated, or
// bit-flipped files (ckpt.ErrCorrupt), or with a broken delta chain,
// are skipped in favor of the next older one; since the first boundary
// of every attempt is a full snapshot, a broken chain degrades to the
// last full snapshot, never to a wrong state. A nil state (no error)
// means no boundary survives and recovery must restart from t=0.
func latestBoundary(dir string, shards int, gateShard []int) (*ckpt.State, uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, 0, nil
		}
		return nil, 0, err
	}
	// Index which boundaries each shard has, and as what kind of record.
	fulls := make([]map[uint64]bool, shards)
	deltas := make([]map[uint64]bool, shards)
	for s := range fulls {
		fulls[s] = map[uint64]bool{}
		deltas[s] = map[uint64]bool{}
	}
	seen := map[uint64]int{}
	for _, e := range entries {
		var shard int
		var t uint64
		if _, err := fmt.Sscanf(e.Name(), "shard-%d-ckpt-%d.json", &shard, &t); err == nil {
			if shard >= 0 && shard < shards && !fulls[shard][t] {
				fulls[shard][t] = true
				if !deltas[shard][t] {
					seen[t]++
				}
			}
			continue
		}
		if _, err := fmt.Sscanf(e.Name(), "shard-%d-delta-%d.json", &shard, &t); err == nil {
			if shard >= 0 && shard < shards && !deltas[shard][t] {
				deltas[shard][t] = true
				if !fulls[shard][t] {
					seen[t]++
				}
			}
		}
	}
	times := make([]uint64, 0, len(seen))
	for t, cnt := range seen {
		if cnt == shards {
			times = append(times, t)
		}
	}
	sort.Slice(times, func(i, j int) bool { return times[i] > times[j] })

	for _, t := range times {
		states := make([]*ckpt.State, shards)
		ok := true
		for s := 0; s < shards; s++ {
			st, err := reconstructShard(dir, s, t, fulls[s], deltas[s])
			if err != nil {
				// Corrupt, unreadable, or chain-broken: this boundary is
				// unusable, try the next older one. Anything else (version
				// skew) also falls back — a bad snapshot must never wedge
				// recovery.
				ok = false
				break
			}
			states[s] = st
		}
		if !ok {
			continue
		}
		merged, err := mergeShardStates(states, gateShard)
		if err != nil {
			continue
		}
		return merged, t, nil
	}
	return nil, 0, nil
}

// reconstructShard rebuilds shard s's snapshot at boundary t: a full
// file directly, otherwise the delta at t replayed onto the recursively
// reconstructed base it names. Apply verifies every chain link (the
// base's checksum must match the delta's recorded BaseSum), so a
// mid-chain corruption surfaces as ckpt.ErrCorrupt here rather than as
// a silently wrong boot state. BaseTime must strictly decrease, so a
// corrupt record cannot send the walk into a cycle.
func reconstructShard(dir string, shard int, t uint64, fulls, deltas map[uint64]bool) (*ckpt.State, error) {
	if fulls[t] {
		return ckpt.ReadFile(filepath.Join(dir, shardCkptName(shard, t)))
	}
	if !deltas[t] {
		return nil, fmt.Errorf("%w: shard %d has no record at boundary %d", ckpt.ErrCorrupt, shard, t)
	}
	d, err := ckpt.ReadDeltaFile(filepath.Join(dir, shardDeltaName(shard, t)))
	if err != nil {
		return nil, err
	}
	if d.BaseTime >= t {
		return nil, fmt.Errorf("%w: shard %d delta at %d names non-decreasing base %d", ckpt.ErrCorrupt, shard, t, d.BaseTime)
	}
	base, err := reconstructShard(dir, shard, d.BaseTime, fulls, deltas)
	if err != nil {
		return nil, err
	}
	return d.Apply(base)
}

// ownedGates derives the per-gate ownership mask of one shard from the
// partition assignment and the LP->shard map.
func ownedGates(assign []int, shardOf []int, shard int, n int) []bool {
	owned := make([]bool, n)
	for g := 0; g < n; g++ {
		owned[g] = shardOf[assign[g]] == shard
	}
	return owned
}
