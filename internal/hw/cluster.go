// Package hw is the cycle-level model of the S-SLIC accelerator of §4.3:
// the FSM host controller, the LUT-based color conversion unit, the four
// scratchpad memories, the Cluster Update Unit with its configurable
// parallelism (Table 3), the Center Update Unit with an iterative
// divider, and the tile-by-tile dataflow against external memory.
// Timing, area and power come from the calibrated component models in
// internal/energy; the functional (bit-accurate) behavior of the same
// datapath lives in internal/lut and the fixed kernel of internal/sslic.
package hw

import (
	"fmt"

	"sslic/internal/energy"
)

// ClusterConfig selects the parallelism of the Cluster Update Unit's
// three functions (§6.2): the color distance calculators (1 iterative or
// 9 parallel), the minimum computation (1 compare ALU iterating 9 cycles
// or a 9:1 tree), and the sigma accumulation adders (1 time-multiplexed
// or 6 parallel).
type ClusterConfig struct {
	DistWays  int // 1 or 9
	MinWays   int // 1 or 9
	AdderWays int // 1 or 6
}

// The five configurations evaluated in Table 3.
var (
	Config111 = ClusterConfig{1, 1, 1}
	Config911 = ClusterConfig{9, 1, 1}
	Config191 = ClusterConfig{1, 9, 1}
	Config116 = ClusterConfig{1, 1, 6}
	Config996 = ClusterConfig{9, 9, 6}
)

// Table3Configs lists the five published configurations in table order.
func Table3Configs() []ClusterConfig {
	return []ClusterConfig{Config111, Config911, Config191, Config116, Config996}
}

// Validate reports whether the way counts are buildable options.
func (c ClusterConfig) Validate() error {
	if c.DistWays != 1 && c.DistWays != 9 {
		return fmt.Errorf("hw: distance calculator ways %d, want 1 or 9", c.DistWays)
	}
	if c.MinWays != 1 && c.MinWays != 9 {
		return fmt.Errorf("hw: minimum unit ways %d, want 1 or 9", c.MinWays)
	}
	if c.AdderWays != 1 && c.AdderWays != 6 {
		return fmt.Errorf("hw: adder ways %d, want 1 or 6", c.AdderWays)
	}
	return nil
}

// String names the configuration in the paper's w-w-w convention.
func (c ClusterConfig) String() string {
	return fmt.Sprintf("%d-%d-%d", c.DistWays, c.MinWays, c.AdderWays)
}

// LatencyCycles returns the per-pixel pipeline latency. The stage
// latencies reproduce Table 3 exactly: an iterative distance unit takes 9
// cycles against 1 pipelined; the iterative minimum takes 9 against a
// 2-cycle registered tree; the time-multiplexed adder takes 6 against 1;
// plus 3 cycles of fetch/select/writeback overhead.
func (c ClusterConfig) LatencyCycles() int {
	lat := 3
	if c.DistWays == 9 {
		lat++
	} else {
		lat += 9
	}
	if c.MinWays == 9 {
		lat += 2
	} else {
		lat += 9
	}
	if c.AdderWays == 6 {
		lat++
	} else {
		lat += 6
	}
	return lat
}

// InitiationInterval returns the sustained cycles per pixel: the maximum
// stage occupancy. Fully parallel stages accept a new pixel every cycle;
// iterative stages block for their iteration count.
func (c ClusterConfig) InitiationInterval() int {
	ii := 1
	if c.DistWays == 1 && ii < 9 {
		ii = 9
	}
	if c.MinWays == 1 && ii < 9 {
		ii = 9
	}
	if c.AdderWays == 1 && ii < 6 {
		ii = 6
	}
	return ii
}

// ThroughputPixelsPerCycle returns 1/II, the Table 3 throughput row.
func (c ClusterConfig) ThroughputPixelsPerCycle() float64 {
	return 1 / float64(c.InitiationInterval())
}

// AreaMM2 returns the unit's silicon area from the calibrated component
// sums (Table 3 row "Area").
func (c ClusterConfig) AreaMM2() float64 {
	a := energy.AreaClusterBase
	if c.DistWays == 9 {
		a += energy.AreaDist9Delta
	}
	if c.MinWays == 9 {
		a += energy.AreaMin9Delta
	}
	if c.AdderWays == 6 {
		a += energy.AreaAdd6Delta
	}
	return a
}

// PowerWatts returns the unit's active power: dynamic power proportional
// to sustained operations per cycle plus leakage proportional to area
// (Table 3 row "Power").
func (c ClusterConfig) PowerWatts(t energy.Tech) float64 {
	opsPerCycle := float64(energy.ClusterOpsPerPixel) / float64(c.InitiationInterval())
	return t.DynamicWatts(opsPerCycle) + t.LeakageWatts(c.AreaMM2())
}

// IterationTime returns the time to push one full iteration of an
// nPixels image through the unit (Table 3 row "Time" uses 1920×1080).
func (c ClusterConfig) IterationTime(t energy.Tech, nPixels int) float64 {
	cycles := float64(nPixels)*float64(c.InitiationInterval()) + float64(c.LatencyCycles())
	return cycles / t.ClockHz
}

// IterationEnergy returns power × time for one full iteration (Table 3
// row "Energy").
func (c ClusterConfig) IterationEnergy(t energy.Tech, nPixels int) float64 {
	return c.PowerWatts(t) * c.IterationTime(t, nPixels)
}
