package hw

import (
	"context"
	"testing"

	"sslic/internal/telemetry"
)

// TestFuncSimCounters pins every count of one functionally simulated
// frame's report. The counts depend on the frame's geometry alone — its
// size, K, buffers, pass count, subsampling ratio and cluster unit — not
// on the scene, so each row states one frame's exact charges: cycles,
// distance calcs, divider ops, DRAM bytes, scratchpad reads and writes,
// the FSM's buffer-tile loads and center updates, and the hits and
// misses ObserveReport charges to the telemetry.
func TestFuncSimCounters(t *testing.T) {
	type counters struct {
		cycles, calcs, divider, dram, reads, writes int64
		loadTile, centerUpdate                      int64
		hits, misses                                float64
	}
	cases := []struct {
		name    string
		w, h, k int
		buffer  int
		passes  int
		ratio   float64
		cluster ClusterConfig
		want    counters
	}{
		{"996_r100", 96, 64, 24, 1024, 8, 1, Config996, counters{118080, 327680, 1152, 288192, 184320, 86016, 48, 8, 270336, 54}},
		{"996_r050", 96, 64, 24, 1024, 8, 0.5, Config996, counters{93504, 163840, 1152, 165312, 110592, 61440, 48, 8, 172032, 54}},
		{"996_r025", 96, 64, 24, 1024, 8, 0.25, Config996, counters{81216, 81920, 1152, 103872, 73728, 49152, 48, 8, 122880, 54}},
		{"111_r100", 96, 64, 24, 1024, 8, 1, Config111, counters{512256, 327680, 1152, 288192, 184320, 86016, 48, 8, 270336, 54}},
		{"996_small", 64, 48, 12, 256, 2, 1, Config996, counters{19440, 35840, 144, 51936, 36864, 24576, 24, 2, 61440, 36}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := funcTestConfig(tc.w, tc.h, tc.k)
			cfg.BufferBytesPerChannel = tc.buffer
			cfg.Passes = tc.passes
			cfg.SubsampleRatio = tc.ratio
			cfg.Cluster = tc.cluster
			fs, err := NewFuncSim(cfg)
			if err != nil {
				t.Fatal(err)
			}
			_, r, err := fs.Run(funcTestImage(t, tc.w, tc.h))
			if err != nil {
				t.Fatal(err)
			}
			got := counters{
				cycles: int64(r.Cycles), calcs: r.Work.DistanceCalcs, divider: r.DividerOps,
				dram: r.TrafficBytes, reads: r.ScratchReads, writes: r.ScratchWrites,
				loadTile:     fs.FSM().Visits(StateLoadTile),
				centerUpdate: fs.FSM().Visits(StateCenterUpdate),
			}
			m := NewMetrics(telemetry.NewRegistry())
			m.ObserveReport(context.Background(), r)
			got.hits, got.misses = m.ScratchHits.Value(), m.ScratchMisses.Value()
			if got != tc.want {
				t.Errorf("counters\n got %+v\nwant %+v", got, tc.want)
			}
			// The FSM loads each buffer tile once a pass: every burst
			// the account charges but colour conversion's, one a tile.
			if want := r.Transfers - bufferTiles(cfg); got.loadTile != want {
				t.Errorf("%d load-tile visits, %d bursts less %d of colour conversion", got.loadTile, r.Transfers, bufferTiles(cfg))
			}
		})
	}
}
