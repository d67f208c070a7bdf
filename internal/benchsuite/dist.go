package benchsuite

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/metrics"
)

// Dist returns the distributed-topology rows: the identical sharded
// workload routed through the hub (every inter-shard batch relayed,
// two hops) and over the direct worker mesh (one hop, hub reduced to
// the control plane), plus a full-vs-delta checkpoint pair. The
// MeshRelay/HubRelay ns/op ratio is the data-plane win of cutting the
// relay out; hub-bytes/run and mesh-bytes/run prove where the traffic
// actually went. The Ckpt pair shares its workload and boundary pace,
// so ckpt-bytes/run is directly comparable: the delta row's reduction
// is what fingerprint-chained incremental records save per run at
// identical recovery fidelity.
func Dist() []Benchmark {
	return []Benchmark{
		{"Dist/HubRelay", BenchDistHubRelay},
		{"Dist/MeshRelay", BenchDistMeshRelay},
		{"Ckpt/Full", BenchCkptFull},
		{"Ckpt/Delta", BenchCkptDelta},
	}
}

// distBenchOpts is the shared 4-shard workload: in-process workers over
// real loopback sockets, a ripple-carry netlist whose carry chain cuts
// across every shard boundary so inter-shard traffic dominates.
func distBenchOpts(b *testing.B, mesh bool, ckptEvery uint64, delta bool) (dist.Options, *metrics.Registry) {
	b.Helper()
	reg := metrics.NewRegistry("cmb-dist")
	return dist.Options{
		Shards:          4,
		Engine:          "cmb",
		Circuit:         "ripple32",
		Seed:            1,
		Vectors:         12,
		Activity:        0.5,
		Period:          40,
		LPs:             8,
		Partition:       "fm",
		Mesh:            mesh,
		CheckpointEvery: ckptEvery,
		CkptDelta:       delta,
		WorkDir:         b.TempDir(),
		Metrics:         reg,
	}, reg
}

// benchDist measures end-to-end dist.Run wall-clock for one topology,
// reporting where the inter-shard bytes flowed.
func benchDist(b *testing.B, mesh bool) {
	opts, reg := distBenchOpts(b, mesh, 0, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dist.Run(opts); err != nil {
			b.Fatal(err)
		}
	}
	g := reg.Report().Gauges
	b.ReportMetric(g["hub_bytes"], "hub-bytes/run")
	b.ReportMetric(g["mesh_bytes"], "mesh-bytes/run")
	b.ReportMetric(g["relay_hops"], "relay-hops")
}

// BenchDistHubRelay routes every inter-shard event batch through the
// hub: two socket hops per batch, the star topology's serialization
// point.
func BenchDistHubRelay(b *testing.B) { benchDist(b, false) }

// BenchDistMeshRelay routes inter-shard batches over direct
// worker-to-worker links; the hub carries only control traffic, so
// hub-bytes/run must be zero.
func BenchDistMeshRelay(b *testing.B) { benchDist(b, true) }

// benchCkpt measures the same sharded run writing a shard snapshot
// every 100 ticks, full-only versus delta-chained. ckpt-bytes/run is
// the on-disk volume per run; the Delta row additionally reports the
// per-record size ratio.
func benchCkpt(b *testing.B, delta bool) {
	opts, reg := distBenchOpts(b, true, 100, delta)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dist.Run(opts); err != nil {
			b.Fatal(err)
		}
	}
	g := reg.Report().Gauges
	b.ReportMetric(g["ckpt_full_bytes"]+g["ckpt_delta_bytes"], "ckpt-bytes/run")
	if delta {
		b.ReportMetric(g["delta_ratio"], "delta-ratio")
	}
}

// BenchCkptFull writes a full restriction of the boundary snapshot at
// every checkpoint boundary — the pre-incremental baseline.
func BenchCkptFull(b *testing.B) { benchCkpt(b, false) }

// BenchCkptDelta writes one full snapshot per attempt and
// fingerprint-chained delta records afterwards.
func BenchCkptDelta(b *testing.B) { benchCkpt(b, true) }
