package trace_test

import (
	"testing"

	"repro/internal/topo"
	"repro/internal/trace"
)

// BenchmarkRecordDelivery times the record path every simulated delivery
// takes — RecordSend on the sender's shard, then RecordRecv on the
// receiver's — in the loop behind the benchmark module's
// trace.record_ns_per_event row: 256 ranks, 512-byte messages, one phase,
// a fresh timeline every 2²⁰ deliveries. The flat case is
// that row; the faulted contended dragonfly is the replay_2d_faulted
// machine, whose receives each price a route, a link factor and a straggler
// factor. One op is one delivery.
func BenchmarkRecordDelivery(b *testing.B) {
	const p, bytes, fresh = 256, 512, 1 << 20
	spec, err := topo.PresetSpec("dragonfly-contended")
	if err != nil {
		b.Fatal(err)
	}
	faulted, err := topo.BuildFaulted(spec, trace.DefaultMachine(), p, topo.FaultPlan{
		Stragglers: []topo.Straggler{{Rank: 37, Factor: 4}, {Rank: 170, Factor: 4}},
		Links:      []topo.LinkFault{{FromNode: 5, ToNode: 41, Factor: 8}},
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		tp   trace.Topology
	}{{"flat", nil}, {"dragonfly-contended+faults", faulted}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var tl *trace.Timeline
			for i := 0; b.Loop(); i++ {
				if i%fresh == 0 {
					tl = trace.NewTimeline(p, trace.DefaultMachine())
					tl.SetTopology(bc.tp)
				}
				from, to := i%p, (i*7+1)%p
				tl.RecordRecv(from, to, bytes, "probe", tl.RecordSend(from, to, bytes, "probe"))
			}
		})
	}
}
