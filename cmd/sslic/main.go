// Command sslic segments an image into superpixels with SLIC or S-SLIC
// and writes boundary-overlay, mean-color and label visualizations.
//
// Usage:
//
//	sslic -in photo.png -k 900 -overlay out.png
//	sslic -in frame.ppm -method slic -iters 10 -mean abstract.ppm
//	sslic -in frame.ppm -datapath fixed -overlay out.png
package main

import (
	"flag"
	"fmt"
	"image/color"
	"os"
	"strings"
	"time"

	"sslic"
	"sslic/internal/imgio"
	"sslic/internal/wire"
)

func main() {
	var (
		in      = flag.String("in", "", "input image (.ppm or .png), required")
		k       = flag.Int("k", 900, "requested superpixel count")
		m       = flag.Float64("m", 10, "compactness (Equation 5's m, 1-40)")
		iters   = flag.Int("iters", 10, "full-image-equivalent iterations")
		ratio   = flag.Float64("ratio", 0.5, "S-SLIC subsampling ratio (1 = no subsampling)")
		method  = flag.String("method", "ppa", "algorithm: ppa, cpa or slic")
		dpName  = flag.String("datapath", "float64", "hot-loop arithmetic: float64, fixed (the integer LUT datapath the server serves) or coded4-coded10 (fixed at §6.1's code widths; the paper uses 8); all but float64 are S-SLIC PPA only")
		slico   = flag.Bool("slico", false, "adaptive compactness (SLICO; method slic only)")
		overlay = flag.String("overlay", "", "write boundary overlay image here")
		mean    = flag.String("mean", "", "write mean-color abstraction here")
		labels  = flag.String("labels", "", "write colorized label image here")
		save    = flag.String("save-labels", "", "write the raw label map here (.slbl, for sslic-eval -precomputed)")
		quiet   = flag.Bool("q", false, "suppress the summary line")
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "sslic: -in is required")
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

	opt := sslic.Options{
		K:                   *k,
		Compactness:         *m,
		Iterations:          *iters,
		SubsampleRatio:      *ratio,
		Datapath:            dp,
		AdaptiveCompactness: *slico,
	}
	switch *method {
	case "ppa":
		opt.Method = sslic.SSLICPPA
	case "cpa":
		opt.Method = sslic.SSLICCPA
	case "slic":
		opt.Method = sslic.SLIC
	default:
		fatal(fmt.Errorf("unknown method %q (want ppa, cpa or slic)", *method))
	}

	goImg := img.ToGoImage()
	t0 := time.Now()
	seg, err := sslic.Segment(goImg, opt)
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(t0)

	if *overlay != "" {
		out := seg.Overlay(goImg, color.RGBA{R: 255, A: 255})
		if err := imgio.WriteImageFile(*overlay, imgio.FromGoImage(out)); err != nil {
			fatal(err)
		}
	}
	if *mean != "" {
		out := seg.MeanColor(goImg)
		if err := imgio.WriteImageFile(*mean, imgio.FromGoImage(out)); err != nil {
			fatal(err)
		}
	}
	if *labels != "" {
		out := seg.ColorizeLabels()
		if err := imgio.WriteImageFile(*labels, imgio.FromGoImage(out)); err != nil {
			fatal(err)
		}
	}
	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			fatal(err)
		}
		if err := wire.EncodeRaw(f, &imgio.LabelMap{W: seg.W, H: seg.H, Labels: seg.Labels}); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if !*quiet {
		used := *ratio
		if opt.Method == sslic.SLIC {
			used = 1 // SLIC visits every pixel on every pass
		}
		fmt.Printf("%s: %dx%d, %d superpixels (%s, datapath=%v, K=%d, m=%g, ratio=%g) in %v\n",
			*in, seg.W, seg.H, seg.NumSegments, opt.Method, dp, *k, *m, used, elapsed.Round(time.Millisecond))
	}
}

// fatal prints err with one "sslic:" prefix, which the segmenter's own
// errors already carry, and exits 1.
func fatal(err error) {
	msg := err.Error()
	if !strings.HasPrefix(msg, "sslic:") {
		msg = "sslic: " + msg
	}
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(1)
}
