package dist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/logic"
	"repro/internal/sim/ckpt"
	"repro/internal/trace"
)

// Shard checkpointing. Every worker's engine captures its own local LPs'
// parts of the consistent cut at each boundary (ckpt.Cuts: a cmb LP once
// its next event and its safe time lie past the boundary, a Time Warp LP
// once GVT has passed it), and the worker's ckpt.Writer stitches them into
// the shard's snapshot: value planes zeroed outside owned gates, pending
// events and waveform samples of owned gates only, in canonical order. The
// waveform is absolute — all own-gate samples from t=0 through the
// boundary, including any booted prefix — and EndTime is the shard's own
// last timestep, extended from the shard's value at the boot boundary, so a
// boundary file's content depends only on (workload, boundary, shard),
// never on which attempt wrote it. That makes stale files from torn-down
// attempts indistinguishable from fresh ones, and lets the hub merge any
// boundary that is complete across shards: plane stitching by gate owner,
// event and sample union, one checksum reseal.
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

// newShardWriter starts the writer of shard's checkpoints into dir: the
// boundaries of the cover gates the shard owns, as full snapshots or, in
// delta mode, as deltas after each writer's first.
func newShardWriter(dir string, shard, gates, cover int, delta bool, head ckpt.State) *ckpt.Writer[logic.Value] {
	return ckpt.NewWriter(dir, func(t uint64, delta bool) string {
		if delta {
			return shardDeltaName(shard, t)
		}
		return shardCkptName(shard, t)
	}, gates, cover, delta, head)
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
	ckpt.SortEvents(merged.Events)
	// Canonical waveform order (time, then gate) matches trace.Merge, so
	// a spliced prefix is byte-identical to an uninterrupted run's.
	trace.Sort(merged.Waveform)
	merged.Seal()
	return merged, nil
}

// latestBoundary scans the checkpoint directory for the newest boundary
// reconstructible for every shard — from a full snapshot directly, or
// by replaying a fingerprint-chained delta sequence down to one — and
// returns the merged cut, with every shard's own EndTime at it (a shard
// booted from the cut extends its own, so its checkpoints match those of
// the attempt that wrote the cut). Boundaries with missing, truncated, or
// bit-flipped files (ckpt.ErrCorrupt), or with a broken delta chain,
// are skipped in favor of the next older one; since the first boundary
// of every attempt is a full snapshot, a broken chain degrades to the
// last full snapshot, never to a wrong state. A nil state (no error)
// means no boundary survives and recovery must restart from t=0.
func latestBoundary(dir string, shards int, gateShard []int) (*ckpt.State, []uint64, error) {
	files, err := scanShardFiles(dir, shards)
	if err != nil || files == nil {
		return nil, nil, err
	}
	for _, t := range files.complete {
		// A corrupt, unreadable, or chain-broken record makes this
		// boundary unusable: try the next older one. Anything else
		// (version skew) also falls back — a bad snapshot must never
		// wedge recovery.
		if merged, states, err := files.merge(t, gateShard); err == nil {
			ends := make([]uint64, shards)
			for s, st := range states {
				ends[s] = st.EndTime
			}
			return merged, ends, nil
		}
	}
	return nil, nil, nil
}

// shardFiles indexes a checkpoint directory: which boundaries each shard
// has, and as what kind of record.
type shardFiles struct {
	dir           string
	fulls, deltas []map[uint64]bool
	// complete lists the boundaries every shard has a record of, newest
	// first.
	complete []uint64
}

// scanShardFiles indexes dir for a fleet of shards; a directory that does
// not exist yields nil.
func scanShardFiles(dir string, shards int) (*shardFiles, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	f := &shardFiles{dir: dir, fulls: make([]map[uint64]bool, shards), deltas: make([]map[uint64]bool, shards)}
	for s := range f.fulls {
		f.fulls[s] = map[uint64]bool{}
		f.deltas[s] = map[uint64]bool{}
	}
	seen := map[uint64]int{}
	for _, e := range entries {
		var shard int
		var t uint64
		if _, err := fmt.Sscanf(e.Name(), "shard-%d-ckpt-%d.json", &shard, &t); err == nil {
			if shard >= 0 && shard < shards && !f.fulls[shard][t] {
				f.fulls[shard][t] = true
				if !f.deltas[shard][t] {
					seen[t]++
				}
			}
			continue
		}
		if _, err := fmt.Sscanf(e.Name(), "shard-%d-delta-%d.json", &shard, &t); err == nil {
			if shard >= 0 && shard < shards && !f.deltas[shard][t] {
				f.deltas[shard][t] = true
				if !f.fulls[shard][t] {
					seen[t]++
				}
			}
		}
	}
	for t, cnt := range seen {
		if cnt == shards {
			f.complete = append(f.complete, t)
		}
	}
	sort.Slice(f.complete, func(i, j int) bool { return f.complete[i] > f.complete[j] })
	return f, nil
}

// merge reconstructs every shard's snapshot at boundary t and stitches
// them into the full cut.
func (f *shardFiles) merge(t uint64, gateShard []int) (*ckpt.State, []*ckpt.State, error) {
	states := make([]*ckpt.State, len(f.fulls))
	for s := range states {
		st, err := reconstructShard(f.dir, s, t, f.fulls[s], f.deltas[s])
		if err != nil {
			return nil, nil, err
		}
		states[s] = st
	}
	merged, err := mergeShardStates(states, gateShard)
	return merged, states, err
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
