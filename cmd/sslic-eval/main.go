// Command sslic-eval segments an image and evaluates the result against
// a ground-truth label map, completing the dataset → segment → evaluate
// workflow:
//
//	sslic-dataset -n 5 -out corpus
//	sslic-eval -in corpus/image000.ppm -gt corpus/gt000.pgm -k 900
//	sslic-eval -in corpus/image000.ppm -gt corpus/gt000.pgm -datapath fixed
//
// It prints the metric set of the paper's §3 evaluation (USE, boundary
// recall) plus the auxiliary metrics.
package main

import (
	"flag"
	"fmt"
	"os"

	"sslic"
	"sslic/internal/imgio"
	"sslic/internal/wire"
)

func main() {
	var (
		in     = flag.String("in", "", "input image (.ppm or .png), required")
		gtPath = flag.String("gt", "", "ground-truth label map (.pgm), required")
		k      = flag.Int("k", 900, "requested superpixel count")
		m      = flag.Float64("m", 10, "compactness")
		iters  = flag.Int("iters", 10, "iterations")
		ratio  = flag.Float64("ratio", 0.5, "S-SLIC subsampling ratio")
		method = flag.String("method", "ppa", "algorithm: ppa, cpa or slic")
		dpName = flag.String("datapath", "float64", "hot-loop arithmetic: float64, fixed (the integer LUT datapath the server serves) or coded4-coded10 (fixed at §6.1's code widths); all but float64 are S-SLIC PPA only")
		pre    = flag.String("precomputed", "", "evaluate this saved label map (.slbl) instead of segmenting")
	)
	flag.Parse()
	if *in == "" || *gtPath == "" {
		fmt.Fprintln(os.Stderr, "sslic-eval: -in and -gt are required")
		flag.Usage()
		os.Exit(2)
	}

	dp, err := sslic.ParseDatapath(*dpName)
	if err != nil {
		fatal(err)
	}
	img, err := imgio.ReadImageFile(*in)
	if err != nil {
		fatal(err)
	}
	f, err := os.Open(*gtPath)
	if err != nil {
		fatal(err)
	}
	gw, gh, gtBytes, err := imgio.DecodePGM(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	if gw != img.W || gh != img.H {
		fatal(fmt.Errorf("ground truth %dx%d does not match image %dx%d", gw, gh, img.W, img.H))
	}
	gtLabels := make([]int32, len(gtBytes))
	for i, v := range gtBytes {
		gtLabels[i] = int32(v)
	}
	gt, err := sslic.NewGroundTruth(gw, gh, gtLabels)
	if err != nil {
		fatal(err)
	}

	if *pre != "" {
		evaluatePrecomputed(img, gt, *pre, *in, *gtPath)
		return
	}

	opt := sslic.Options{
		K:              *k,
		Compactness:    *m,
		Iterations:     *iters,
		SubsampleRatio: *ratio,
		Datapath:       dp,
	}
	switch *method {
	case "ppa":
		opt.Method = sslic.SSLICPPA
	case "cpa":
		opt.Method = sslic.SSLICCPA
	case "slic":
		opt.Method = sslic.SLIC
	default:
		fatal(fmt.Errorf("unknown method %q", *method))
	}

	goImg := img.ToGoImage()
	seg, err := sslic.Segment(goImg, opt)
	if err != nil {
		fatal(err)
	}
	metrics, err := sslic.Evaluate(goImg, seg, gt)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("%s vs %s (%s, datapath=%v, K=%d → %d superpixels)\n", *in, *gtPath, opt.Method, dp, *k, seg.NumSegments)
	fmt.Printf("  undersegmentation error          %.4f (lower is better)\n", metrics.UndersegmentationError)
	fmt.Printf("  boundary recall (tol 2px)        %.4f (higher is better)\n", metrics.BoundaryRecall)
	fmt.Printf("  achievable segmentation accuracy %.4f\n", metrics.AchievableSegmentationAccuracy)
	fmt.Printf("  explained variation              %.4f\n", metrics.ExplainedVariation)
	fmt.Printf("  compactness                      %.4f\n", metrics.Compactness)
}

// evaluatePrecomputed scores a saved label map against the ground truth.
func evaluatePrecomputed(img *imgio.Image, gt *sslic.GroundTruth, prePath, inPath, gtPath string) {
	f, err := os.Open(prePath)
	if err != nil {
		fatal(err)
	}
	lm, err := wire.Decode(f, img.W*img.H, nil)
	f.Close()
	if err != nil {
		fatal(fmt.Errorf("%s: %w", prePath, err))
	}
	if lm.W != img.W || lm.H != img.H {
		fatal(fmt.Errorf("label map %dx%d does not match image %dx%d", lm.W, lm.H, img.W, img.H))
	}
	seg, err := sslic.FromLabels(lm.W, lm.H, lm.Labels)
	if err != nil {
		fatal(err)
	}
	metrics, err := sslic.Evaluate(img.ToGoImage(), seg, gt)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s (precomputed %s) vs %s: %d superpixels\n", inPath, prePath, gtPath, seg.NumSegments)
	fmt.Printf("  undersegmentation error          %.4f\n", metrics.UndersegmentationError)
	fmt.Printf("  boundary recall (tol 2px)        %.4f\n", metrics.BoundaryRecall)
	fmt.Printf("  achievable segmentation accuracy %.4f\n", metrics.AchievableSegmentationAccuracy)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sslic-eval:", err)
	os.Exit(1)
}
