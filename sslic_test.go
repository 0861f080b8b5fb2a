package sslic

import (
	"image"
	"image/color"
	"math/bits"
	"testing"
)

// testImage draws four colored quadrants.
func testImage(w, h int) *image.RGBA {
	img := image.NewRGBA(image.Rect(0, 0, w, h))
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var c color.RGBA
			switch {
			case x < w/2 && y < h/2:
				c = color.RGBA{230, 40, 40, 255}
			case x >= w/2 && y < h/2:
				c = color.RGBA{40, 230, 40, 255}
			case x < w/2:
				c = color.RGBA{40, 40, 230, 255}
			default:
				c = color.RGBA{230, 230, 40, 255}
			}
			img.SetRGBA(x, y, c)
		}
	}
	return img
}

func TestSegmentDefault(t *testing.T) {
	img := testImage(64, 48)
	seg, err := Segment(img, DefaultOptions(16))
	if err != nil {
		t.Fatal(err)
	}
	if seg.W != 64 || seg.H != 48 {
		t.Fatalf("dims %dx%d", seg.W, seg.H)
	}
	if len(seg.Labels) != 64*48 {
		t.Fatalf("labels %d", len(seg.Labels))
	}
	if seg.NumSegments < 8 || seg.NumSegments > 32 {
		t.Fatalf("segments %d, requested 16", seg.NumSegments)
	}
	for i, v := range seg.Labels {
		if v < 0 || int(v) >= seg.NumSegments {
			t.Fatalf("label %d at %d out of range", v, i)
		}
	}
	if seg.DistanceCalcs == 0 || seg.Iterations == 0 {
		t.Fatal("stats empty")
	}
}

func TestSegmentAllMethods(t *testing.T) {
	img := testImage(48, 48)
	for _, m := range []Method{SSLICPPA, SSLICCPA, SLIC} {
		opt := DefaultOptions(9)
		opt.Method = m
		seg, err := Segment(img, opt)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if seg.NumSegments < 4 {
			t.Fatalf("%v: only %d segments", m, seg.NumSegments)
		}
	}
}

func TestSegmentNilImage(t *testing.T) {
	if _, err := Segment(nil, DefaultOptions(10)); err == nil {
		t.Fatal("nil image accepted")
	}
}

func TestSegmentBadOptions(t *testing.T) {
	img := testImage(32, 32)
	opt := DefaultOptions(0)
	if _, err := Segment(img, opt); err == nil {
		t.Fatal("K=0 accepted")
	}
}

func TestSegmentFixedPoint(t *testing.T) {
	img := testImage(48, 48)
	opt := DefaultOptions(9)
	opt.Datapath = Coded(8)
	seg, err := Segment(img, opt)
	if err != nil {
		t.Fatal(err)
	}
	if seg.NumSegments < 4 {
		t.Fatalf("8-bit datapath produced %d segments", seg.NumSegments)
	}
}

// TestDatapathRequiresPPA: every datapath but Float64 is the fixed
// datapath, which only the S-SLIC PPA has, and a coded width runs 4 to
// 10 bits.
func TestDatapathRequiresPPA(t *testing.T) {
	img := testImage(48, 48)
	for _, m := range []Method{SLIC, SSLICCPA} {
		for _, d := range []Datapath{Fixed, Coded(8)} {
			opt := DefaultOptions(9)
			opt.Method, opt.Datapath = m, d
			if _, err := Segment(img, opt); err == nil {
				t.Errorf("%v: datapath %v accepted", m, d)
			}
		}
	}
	opt := DefaultOptions(9)
	opt.Datapath = Coded(12)
	if _, err := Segment(img, opt); err == nil {
		t.Error("Coded(12) accepted")
	}
}

func TestLabelAccessor(t *testing.T) {
	img := testImage(32, 32)
	seg, err := Segment(img, DefaultOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	if seg.Label(0, 0) != seg.Labels[0] {
		t.Fatal("Label accessor inconsistent")
	}
	if seg.Label(31, 31) != seg.Labels[31*32+31] {
		t.Fatal("Label accessor inconsistent at end")
	}
}

func TestOverlayAndMeanColor(t *testing.T) {
	img := testImage(48, 48)
	seg, err := Segment(img, DefaultOptions(9))
	if err != nil {
		t.Fatal(err)
	}
	over := seg.Overlay(img, color.RGBA{255, 0, 0, 255})
	if over.Bounds().Dx() != 48 {
		t.Fatal("overlay dims")
	}
	// Some pixel must be painted boundary red.
	found := false
	mask := seg.BoundaryMask()
	for i, b := range mask {
		if b {
			x, y := i%48, i/48
			r, _, _, _ := over.At(x, y).RGBA()
			if r>>8 == 255 {
				found = true
			}
			break
		}
	}
	if !found {
		t.Fatal("no boundary pixel painted")
	}
	mean := seg.MeanColor(img)
	if mean.Bounds().Dx() != 48 {
		t.Fatal("mean color dims")
	}
	colored := seg.ColorizeLabels()
	if colored.Bounds().Dy() != 48 {
		t.Fatal("colorize dims")
	}
}

func TestRegionSizesSumToPixels(t *testing.T) {
	img := testImage(40, 30)
	seg, err := Segment(img, DefaultOptions(6))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range seg.RegionSizes() {
		total += n
	}
	if total != 40*30 {
		t.Fatalf("region sizes sum %d, want %d", total, 1200)
	}
}

func TestAdjacencyGraph(t *testing.T) {
	img := testImage(48, 48)
	seg, err := Segment(img, DefaultOptions(9))
	if err != nil {
		t.Fatal(err)
	}
	adj := seg.AdjacencyGraph()
	if len(adj) == 0 {
		t.Fatal("empty adjacency graph")
	}
	// Symmetry: a in adj[b] ⇒ b in adj[a].
	for v, ns := range adj {
		for _, n := range ns {
			found := false
			for _, back := range adj[n] {
				if back == v {
					found = true
				}
			}
			if !found {
				t.Fatalf("adjacency not symmetric: %d→%d", v, n)
			}
		}
	}
	// Sorted neighbor lists.
	for v, ns := range adj {
		for i := 1; i < len(ns); i++ {
			if ns[i] < ns[i-1] {
				t.Fatalf("neighbors of %d not sorted", v)
			}
		}
	}
}

func TestEvaluateAgainstGroundTruth(t *testing.T) {
	img := testImage(64, 64)
	seg, err := Segment(img, DefaultOptions(16))
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth = the four quadrants.
	gtLabels := make([]int32, 64*64)
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			var v int32
			if x >= 32 {
				v = 1
			}
			if y >= 32 {
				v += 2
			}
			gtLabels[y*64+x] = v
		}
	}
	gt, err := NewGroundTruth(64, 64, gtLabels)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Evaluate(img, seg, gt)
	if err != nil {
		t.Fatal(err)
	}
	if m.UndersegmentationError > 0.1 {
		t.Errorf("USE %.3f too high on clean quadrants", m.UndersegmentationError)
	}
	if m.BoundaryRecall < 0.9 {
		t.Errorf("BR %.3f too low on clean quadrants", m.BoundaryRecall)
	}
	if m.AchievableSegmentationAccuracy < 0.95 {
		t.Errorf("ASA %.3f too low", m.AchievableSegmentationAccuracy)
	}
	if m.Compactness <= 0 || m.ExplainedVariation <= 0.5 {
		t.Errorf("suspicious metrics: %+v", m)
	}
}

// badLabelMaps are label slices no w×h label map can hold: a length
// mismatch, empty or negative dimensions, and a pixel count that
// overflows int to 0.
var badLabelMaps = []struct {
	name   string
	w, h   int
	labels []int32
}{
	{"size mismatch", 4, 4, make([]int32, 15)},
	{"zero width", 0, 5, nil},
	{"negative", -1, -1, []int32{0}},
	{"overflow", 1 << (bits.UintSize / 2), 1 << (bits.UintSize / 2), nil},
}

func TestNewGroundTruthValidates(t *testing.T) {
	for _, tc := range badLabelMaps {
		if _, err := NewGroundTruth(tc.w, tc.h, tc.labels); err == nil {
			t.Errorf("%s: %dx%d with %d labels accepted", tc.name, tc.w, tc.h, len(tc.labels))
		}
	}
}

func TestEvaluateNilArgs(t *testing.T) {
	img := testImage(8, 8)
	if _, err := Evaluate(img, nil, nil); err == nil {
		t.Fatal("nil args accepted")
	}
}

func TestSimulateAcceleratorDefault(t *testing.T) {
	r, err := SimulateAccelerator(DefaultAcceleratorConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !r.RealTime {
		t.Error("default HD design must be real-time")
	}
	if r.LatencyMS < 30 || r.LatencyMS > 36 {
		t.Errorf("latency %.1f ms, expected ~33", r.LatencyMS)
	}
	if r.PowerMW < 45 || r.PowerMW > 55 {
		t.Errorf("power %.1f mW, expected ~49", r.PowerMW)
	}
}

func TestSimulateAcceleratorOverrides(t *testing.T) {
	cfg := DefaultAcceleratorConfig()
	cfg.Width, cfg.Height = 640, 480
	cfg.BufferKB = 1
	cfg.ClockGHz = 0.9
	r, err := SimulateAccelerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !r.RealTime {
		t.Error("VGA design must be real-time")
	}
	hd, _ := SimulateAccelerator(DefaultAcceleratorConfig())
	if r.EnergyMJPerFrame >= hd.EnergyMJPerFrame {
		t.Error("VGA energy not below HD")
	}
}

func TestSimulateAcceleratorBadConfig(t *testing.T) {
	cfg := DefaultAcceleratorConfig()
	cfg.K = -5
	if _, err := SimulateAccelerator(cfg); err == nil {
		t.Fatal("negative K accepted")
	}
}

func TestMethodStrings(t *testing.T) {
	if SLIC.String() != "SLIC" || SSLICPPA.String() != "S-SLIC/PPA" || SSLICCPA.String() != "S-SLIC/CPA" {
		t.Fatal("method names")
	}
}

func TestWarmStartAcrossFrames(t *testing.T) {
	img := testImage(64, 48)
	first, err := Segment(img, DefaultOptions(12))
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions(12)
	opt.Iterations = 2
	opt.WarmStart = first
	second, err := Segment(img, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Warm-started re-segmentation of the identical frame must agree
	// almost everywhere with the converged first result.
	agree := 0
	bm0 := first.BoundaryMask()
	bm1 := second.BoundaryMask()
	for i := range bm0 {
		if bm0[i] == bm1[i] {
			agree++
		}
	}
	if float64(agree)/float64(len(bm0)) < 0.95 {
		t.Fatalf("warm start diverged: %d/%d boundary agreement", agree, len(bm0))
	}
}

func TestWarmStartRequiresPPA(t *testing.T) {
	img := testImage(32, 32)
	first, err := Segment(img, DefaultOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions(4)
	opt.Method = SLIC
	opt.WarmStart = first
	if _, err := Segment(img, opt); err == nil {
		t.Fatal("warm start with SLIC accepted")
	}
}

func TestWarmStartSizeMismatch(t *testing.T) {
	img := testImage(32, 32)
	first, err := Segment(img, DefaultOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions(16) // different K → different center grid
	opt.WarmStart = first
	if _, err := Segment(img, opt); err == nil {
		t.Fatal("warm start with mismatched K accepted")
	}
}

func TestSLICOOption(t *testing.T) {
	img := testImage(48, 48)
	opt := DefaultOptions(9)
	opt.Method = SLIC
	opt.AdaptiveCompactness = true
	seg, err := Segment(img, opt)
	if err != nil {
		t.Fatal(err)
	}
	if seg.NumSegments < 4 {
		t.Fatalf("SLICO produced %d segments", seg.NumSegments)
	}
	// SLICO with a subsampled method must be rejected.
	opt.Method = SSLICPPA
	if _, err := Segment(img, opt); err == nil {
		t.Fatal("SLICO accepted with PPA method")
	}
}

func TestFromLabels(t *testing.T) {
	labels := make([]int32, 16)
	for i := range labels {
		labels[i] = int32(i % 4)
	}
	seg, err := FromLabels(4, 4, labels)
	if err != nil {
		t.Fatal(err)
	}
	if seg.NumSegments != 4 {
		t.Fatalf("segments %d", seg.NumSegments)
	}
	if seg.Label(1, 0) != 1 {
		t.Fatal("label accessor wrong")
	}
	for _, tc := range badLabelMaps {
		if _, err := FromLabels(tc.w, tc.h, tc.labels); err == nil {
			t.Errorf("%s: %dx%d with %d labels accepted", tc.name, tc.w, tc.h, len(tc.labels))
		}
	}
	bad := make([]int32, 16)
	bad[3] = -2
	if _, err := FromLabels(4, 4, bad); err == nil {
		t.Fatal("negative label accepted")
	}
}
