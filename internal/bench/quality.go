package bench

import (
	"fmt"
	"time"

	"sslic/internal/dataset"
	"sslic/internal/metrics"
	"sslic/internal/slic"
	"sslic/internal/sslic"
)

// Figure 2 workload: K=900 superpixels on the Berkeley-substitute corpus.
const fig2K = 900

func init() {
	register(Runner{
		ID:          "fig2a",
		Description: "Undersegmentation error vs runtime: SLIC, S-SLIC(0.5), S-SLIC(0.25)",
		Run:         func(o Options) (*Table, error) { return figure2(o, "fig2a") },
	})
	register(Runner{
		ID:          "fig2b",
		Description: "Boundary recall vs runtime: SLIC, S-SLIC(0.5), S-SLIC(0.25)",
		Run:         func(o Options) (*Table, error) { return figure2(o, "fig2b") },
	})
	register(Runner{
		ID:          "table1",
		Description: "Phase time breakdown of SLIC and S-SLIC",
		Run:         table1,
	})
	register(Runner{
		ID:          "bitwidth",
		Description: "§6.1 bit-width exploration: USE/BR delta vs float64",
		Run:         bitWidth,
	})
}

// corpus builds the experiment corpus.
func corpus(o Options) ([]*dataset.Sample, error) {
	n := o.CorpusSize
	if n < 1 {
		n = 1
	}
	return dataset.Corpus(dataset.DefaultConfig(), n, o.Seed)
}

// qualityPoint is one (variant, iterations) measurement averaged over the
// corpus.
type qualityPoint struct {
	variant       string
	iters         int
	timeMS        float64
	use, br       float64
	useStd, brStd float64
}

// runQualitySweep produces the Figure 2 curves.
func runQualitySweep(o Options) ([]qualityPoint, error) {
	samples, err := corpus(o)
	if err != nil {
		return nil, err
	}
	iterSweep := []int{2, 3, 5, 8, 10, 14}
	if o.Quick {
		iterSweep = []int{2, 5, 10}
	}
	type variant struct {
		name  string
		arch  sslic.Arch
		ratio float64
	}
	variants := []variant{
		{"SLIC", sslic.SLIC, 1},
		{"S-SLIC(0.5)", sslic.PPA, 0.5},
		{"S-SLIC(0.25)", sslic.PPA, 0.25},
	}
	var points []qualityPoint
	for _, v := range variants {
		for _, iters := range iterSweep {
			var totalTime time.Duration
			var useAgg, brAgg metrics.Aggregate
			for _, s := range samples {
				p := sslic.DefaultParams(fig2K, v.ratio)
				p.Arch = v.arch
				p.FullIters = iters
				t0 := time.Now()
				r, err := sslic.Segment(s.Image, p)
				if err != nil {
					return nil, err
				}
				totalTime += time.Since(t0)
				u, err := metrics.UndersegmentationError(r.Labels, s.GT)
				if err != nil {
					return nil, err
				}
				b, err := metrics.BoundaryRecall(r.Labels, s.GT, 2)
				if err != nil {
					return nil, err
				}
				useAgg.Add(u)
				brAgg.Add(b)
			}
			n := float64(len(samples))
			points = append(points, qualityPoint{
				variant: v.name,
				iters:   iters,
				timeMS:  float64(totalTime.Milliseconds()) / n,
				use:     useAgg.Mean(),
				br:      brAgg.Mean(),
				useStd:  useAgg.Std(),
				brStd:   brAgg.Std(),
			})
		}
	}
	return points, nil
}

func figure2(o Options, id string) (*Table, error) {
	points, err := runQualitySweep(o)
	if err != nil {
		return nil, err
	}
	metric := "USE"
	title := "Undersegmentation error vs runtime (K=900)"
	if id == "fig2b" {
		metric = "BoundaryRecall"
		title = "Boundary recall vs runtime (K=900)"
	}
	t := &Table{
		ID:      id,
		Title:   title,
		Columns: []string{"variant", "full-iters", "time(ms)", metric, "±std"},
		Notes: []string{
			"corpus: synthetic Berkeley substitute (see DESIGN.md); absolute times are host-dependent",
			"paper shape: S-SLIC reaches SLIC's quality at ~15-25% less runtime",
		},
	}
	for _, p := range points {
		val, std := p.use, p.useStd
		if id == "fig2b" {
			val, std = p.br, p.brStd
		}
		t.AddRow(p.variant, fmt.Sprintf("%d", p.iters), f1(p.timeMS), f4(val), f4(std))
	}
	return t, nil
}

// table1Rounds is how many times table1 runs each variant on each scene.
const table1Rounds = 3

func table1(o Options) (*Table, error) {
	samples, err := corpus(o)
	if err != nil {
		return nil, err
	}
	iters := 10
	if o.Quick {
		iters = 4
	}
	sumPhases := func(st slic.Stats) (cc, assign, update, other, total float64) {
		cc = st.ColorConvTime.Seconds()
		assign = st.AssignTime.Seconds()
		update = st.UpdateTime.Seconds()
		other = st.OtherTime.Seconds() + st.InitTime.Seconds()
		total = cc + assign + update + other
		return cc, assign, update, other, total
	}
	// Both rows are profiled under the PPA dataflow so that subsampling
	// is the only difference: the "SLIC" row is the non-subsampled
	// (ratio 1.0, gSLIC-style) formulation the accelerator targets, the
	// S-SLIC row runs ratio 0.5. Both use the paper's CPU software
	// organization, where the center update is a separate full pass
	// after every subset pass — that is why its share grows under
	// subsampling (the paper measures 10.2% → 17.9%).
	//
	// The two variants take turns scene by scene, over table1Rounds
	// rounds, so that load from elsewhere on the host lands on both.
	// Contention only adds time, so each phase's time is its least
	// round's, and the shares come from those least times.
	ratios := [2]float64{1, 0.5}
	var least [2][5]float64 // by variant, the least round's phase times
	for round := 0; round < table1Rounds; round++ {
		var ph [2][5]float64
		for _, s := range samples {
			for v, ratio := range ratios {
				p := sslic.DefaultParams(fig2K, ratio)
				p.FullIters = iters
				p.SoftwareCenterUpdate = true
				r, err := sslic.Segment(s.Image, p)
				if err != nil {
					return nil, err
				}
				cc, a, u, ot, _ := sumPhases(r.Stats.Stats)
				ph[v][0] += cc
				ph[v][1] += a
				ph[v][2] += u
				ph[v][3] += ot
			}
		}
		for v := range ph {
			for i := range 4 {
				if round == 0 || ph[v][i] < least[v][i] {
					least[v][i] = ph[v][i]
				}
			}
		}
	}
	for v := range least {
		least[v][4] = least[v][0] + least[v][1] + least[v][2] + least[v][3]
	}
	slicPhases, ssPhases := least[0], least[1]
	t := &Table{
		ID:      "table1",
		Title:   "Time breakdown of SLIC and S-SLIC implementations",
		Columns: []string{"variant", "ColorConversion", "Distance+Min", "CenterUpdate", "Other"},
		Notes: []string{
			"paper: SLIC 23.4/65.9/10.2/0.5%%; S-SLIC 18.7/59.7/17.9/3.7%%",
			"shape to match: Distance+Min dominates; CenterUpdate share grows under subsampling",
			"both rows profiled under the PPA dataflow (SLIC = ratio 1.0) with the separate-pass center update the paper's software uses",
		},
	}
	pct := func(v, tot float64) string { return fmt.Sprintf("%.1f%%", 100*v/tot) }
	t.AddRow("SLIC", pct(slicPhases[0], slicPhases[4]), pct(slicPhases[1], slicPhases[4]),
		pct(slicPhases[2], slicPhases[4]), pct(slicPhases[3], slicPhases[4]))
	t.AddRow("S-SLIC", pct(ssPhases[0], ssPhases[4]), pct(ssPhases[1], ssPhases[4]),
		pct(ssPhases[2], ssPhases[4]), pct(ssPhases[3], ssPhases[4]))
	return t, nil
}

func bitWidth(o Options) (*Table, error) {
	samples, err := corpus(o)
	if err != nil {
		return nil, err
	}
	widths := []int{10, 8, 7, 6, 5, 4}
	if o.Quick {
		widths = []int{10, 8, 5}
	}
	iters := 10
	if o.Quick {
		iters = 4
	}
	// mean runs S-SLIC(0.5) on every sample on datapath d and returns the
	// mean USE and BR.
	mean := func(d sslic.DatapathKind) (use, br float64, err error) {
		for _, s := range samples {
			p := sslic.DefaultParams(fig2K, 0.5)
			p.FullIters = iters
			p.Datapath = d
			r, err := sslic.Segment(s.Image, p)
			if err != nil {
				return 0, 0, err
			}
			u, err := metrics.UndersegmentationError(r.Labels, s.GT)
			if err != nil {
				return 0, 0, err
			}
			b, err := metrics.BoundaryRecall(r.Labels, s.GT, 2)
			if err != nil {
				return 0, 0, err
			}
			use += u
			br += b
		}
		n := float64(len(samples))
		return use / n, br / n, nil
	}
	baseUSE, baseBR, err := mean(sslic.Float64)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:      "bitwidth",
		Title:   "§6.1 bit-width exploration (S-SLIC(0.5), K=900)",
		Columns: []string{"width", "USE", "ΔUSE vs float64", "BR", "ΔBR vs float64"},
		Notes: []string{
			"paper: at 8-bit fixed point, USE grows by only 0.003 and BR drops by only 0.001",
			"paper: below 7 bits the error increase becomes noticeable",
			"each w-bit row runs datapath coded<w>, the fixed datapath with colour codes and saturating distance codes of that width; fixed (served) is datapath fixed, 8-bit colour codes and exact distances",
			"12 and 16 bits are not swept: a packed code word holds 10-bit fields, and a float quantiser read 16, 12 and 10 bits as float64 (ΔUSE −0.0001, −0.0006, −0.0003), so the float64 row stands for them",
		},
	}
	t.AddRow("float64", f4(baseUSE), "-", f4(baseBR), "-")
	row := func(name string, d sslic.DatapathKind) error {
		use, br, err := mean(d)
		if err != nil {
			return err
		}
		t.AddRow(name, f4(use), f4(use-baseUSE), f4(br), f4(br-baseBR))
		return nil
	}
	if err := row("fixed (served)", sslic.Fixed); err != nil {
		return nil, err
	}
	for _, w := range widths {
		if err := row(fmt.Sprintf("%d-bit", w), sslic.Coded(w)); err != nil {
			return nil, err
		}
	}
	return t, nil
}
