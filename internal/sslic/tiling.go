package sslic

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"sslic/internal/faults"
	"sslic/internal/slic"
	"sslic/internal/telemetry"
)

// Tiling is the static pixel→candidate-centers structure of the PPA
// (paper §4.3): the image is split into grid cells matching the initial
// center grid, and every pixel of a cell shares the same list of (up to)
// 9 spatially closest initial centers — the cell's own center plus its 8
// neighbors. The paper precomputes these lists offline and stores them in
// external memory; "statically assigning these values has minimal effect
// on the accuracy".
type Tiling struct {
	W, H   int
	NX, NY int
	// Candidates[t] holds the center indices for tile t (gy*NX+gx).
	// Interior tiles have 9; border tiles fewer.
	Candidates [][]int32
}

// NewTiling builds the static tiling for a w×h image and k requested
// superpixels, matching the center grid produced by slic.InitCenters.
func NewTiling(w, h, k int) *Tiling {
	nx, ny := slic.CenterGridDims(w, h, k)
	t := &Tiling{W: w, H: h, NX: nx, NY: ny, Candidates: make([][]int32, nx*ny)}
	// All tile lists share one flat backing array: one allocation instead
	// of nx*ny, matching the paper's single static candidate table in
	// external memory. Lists never grow past their 9-slot reservation.
	backing := make([]int32, 0, 9*nx*ny)
	for gy := 0; gy < ny; gy++ {
		for gx := 0; gx < nx; gx++ {
			start := len(backing)
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					cx, cy := gx+dx, gy+dy
					if cx < 0 || cx >= nx || cy < 0 || cy >= ny {
						continue
					}
					backing = append(backing, int32(cy*nx+cx))
				}
			}
			t.Candidates[gy*nx+gx] = backing[start:len(backing):len(backing)]
		}
	}
	return t
}

// TileOf returns the tile index of pixel (x, y).
func (t *Tiling) TileOf(x, y int) int {
	gx := x * t.NX / t.W
	if gx >= t.NX {
		gx = t.NX - 1
	}
	gy := y * t.NY / t.H
	if gy >= t.NY {
		gy = t.NY - 1
	}
	return gy*t.NX + gx
}

// OwnCenter returns the index of the pixel's own cell center, the static
// initial assignment (the paper initializes the external-memory label copy
// before the first cluster-update pass).
func (t *Tiling) OwnCenter(x, y int) int32 {
	return int32(t.TileOf(x, y))
}

// NumTiles returns NX*NY, which equals the effective superpixel count.
func (t *Tiling) NumTiles() int { return t.NX * t.NY }

// tileBands splits the NY tile rows into min(workers, NY) contiguous
// bands, resolving the TileWorkers conventions (-1 = all CPUs, <=1 =
// serial). The [i*NY/n, (i+1)*NY/n) split is the fixed decomposition
// both datapaths and the determinism tests rely on.
func tileBands(workers, ny int) int {
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(workers, ny))
}

// bandStat is one band's share of a pass, recorded for the per-tile
// trace events and the imbalance gauge.
type bandStat struct {
	calcs, skipped, saved int64
	start                 time.Time
	dur                   time.Duration
	err                   error
}

// passScratch is the per-pass working state of a PPA datapath — the
// pass's sigma accumulators, the band stats and one partial accumulator
// slice per band — hoisted out of the pass loop so a request allocates
// it once instead of once per subset pass. T is the datapath's
// arithmetic.
type passScratch[T float64 | int64] struct {
	acc   []sigmaOf[T]
	bands []bandStat
	accs  [][]sigmaOf[T]
}

// bandKernel is a PPA kernel's hot loop as the band fan-out calls it:
// the cluster update of band b, tile rows [ty0, ty1), accumulating into
// acc. The band index lets a kernel keep per-band working memory. It
// returns the band's distance calcs, skipped tiles and saved calcs.
type bandKernel[T float64 | int64] interface {
	band(acc []sigmaOf[T], b, ty0, ty1 int) (calcs, skipped, saved int64)
}

// runBands is the band fan-out of one PPA subset pass, serial or across
// worker goroutines per Params.TileWorkers. A parallel pass partitions
// the tile rows into bands; each band accumulates into its own partial
// sigma slice, merged into acc afterwards in band order so the schedule
// never leaks into the result — bit for bit on the integer datapath, up
// to float summation order on the float64 one. Every band passes
// through the sslic.tile fault point.
func runBands[T float64 | int64](f *frame, kern bandKernel[T], acc []sigmaOf[T], scr *passScratch[T], pass int) (calcs, skipped, saved int64, err error) {
	ny := f.tiling.NY
	n := tileBands(f.p.TileWorkers, ny)
	bands := grow(&scr.bands, n)
	clear(bands)
	var accs [][]sigmaOf[T]
	if n == 1 {
		runBand(kern, bands, acc, 0, 0, ny)
	} else {
		accs = grow(&scr.accs, n)
		var wg sync.WaitGroup
		for i := range bands {
			part := grow(&accs[i], len(acc))
			clear(part)
			wg.Add(1)
			go func() {
				defer wg.Done()
				runBand(kern, bands, part, i, i*ny/n, (i+1)*ny/n)
			}()
		}
		wg.Wait()
	}
	if err := bandError(pass, bands); err != nil {
		return 0, 0, 0, err
	}
	for _, part := range accs {
		for ci := range acc {
			acc[ci].add(&part[ci])
		}
	}
	for i := range bands {
		calcs += bands[i].calcs
		skipped += bands[i].skipped
		saved += bands[i].saved
	}
	observeBands(f.tr, f.p.Metrics, pass, bands)
	return calcs, skipped, saved, nil
}

// runBand runs band i of a pass into its stat slot.
func runBand[T float64 | int64](kern bandKernel[T], bands []bandStat, acc []sigmaOf[T], i, ty0, ty1 int) {
	b := &bands[i]
	b.start = time.Now()
	if b.err = faults.Fire(faults.PointTile); b.err == nil {
		b.calcs, b.skipped, b.saved = kern.band(acc, i, ty0, ty1)
	}
	b.dur = time.Since(b.start)
}

// observeBands lands the band timings on the trace (one "tile" span per
// band, emitted in band order from the merging goroutine so traces stay
// single-writer) and on the tile gauges. Serial passes skip the trace
// spans — the "pass" event already covers the single band.
func observeBands(tr *telemetry.Trace, m *Metrics, pass int, bands []bandStat) {
	if tr != nil && len(bands) > 1 {
		for i := range bands {
			tr.Emit("tile", "sslic", bands[i].start, bands[i].dur, map[string]any{
				"pass": pass, "band": i, "distance_calcs": bands[i].calcs,
			})
		}
	}
	var maxDur, sumDur time.Duration
	for i := range bands {
		sumDur += bands[i].dur
		maxDur = max(maxDur, bands[i].dur)
	}
	m.observeTiles(len(bands), maxDur, sumDur)
}

// bandError returns the lowest-band failure, so a multi-band pass fails
// deterministically regardless of goroutine scheduling.
func bandError(pass int, bands []bandStat) error {
	for i := range bands {
		if bands[i].err != nil {
			return fmt.Errorf("sslic: pass %d band %d: %w", pass, i, bands[i].err)
		}
	}
	return nil
}
