// Command sslic-hwsim runs the bit-accurate functional simulation of the
// S-SLIC accelerator on a real image: the pixels go through the fixed
// datapath at 8-bit colour and distance codes — the modeled LUT color
// conversion and integer cluster-update datapath — producing the label
// map the silicon would produce alongside the frame's report: its cycle,
// traffic and operation counts. The passes must make whole iterations: a
// multiple of the subset count round(1/ratio).
//
// Usage:
//
//	sslic-hwsim -in frame.ppm -k 900 -overlay hw_overlay.ppm
//	sslic-hwsim -in frame.ppm -buffer 4 -passes 10 -ratio 0.5
package main

import (
	"flag"
	"fmt"
	"os"

	"sslic/internal/hw"
	"sslic/internal/imgio"
)

func main() {
	var (
		in      = flag.String("in", "", "input image (.ppm or .png), required")
		k       = flag.Int("k", 900, "superpixel count")
		buffer  = flag.Int("buffer", 4, "channel buffer size in kB")
		passes  = flag.Int("passes", 9, "cluster update passes, a multiple of round(1/ratio)")
		ratio   = flag.Float64("ratio", 1, "subsampling ratio")
		overlay = flag.String("overlay", "", "write the hardware label boundary overlay here")
		labels  = flag.String("labels", "", "write the colorized hardware label map here")
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "sslic-hwsim: -in is required")
		flag.Usage()
		os.Exit(2)
	}
	im, err := imgio.ReadImageFile(*in)
	if err != nil {
		fatal(err)
	}

	cfg := hw.DefaultConfig()
	cfg.Width, cfg.Height, cfg.K = im.W, im.H, *k
	cfg.BufferBytesPerChannel = *buffer * 1024
	cfg.Passes = *passes
	cfg.SubsampleRatio = *ratio

	fs, err := hw.NewFuncSim(cfg)
	if err != nil {
		fatal(err)
	}
	lm, r, err := fs.Run(im)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("functional simulation of %s (%dx%d, K=%d, %s cluster unit)\n",
		*in, im.W, im.H, *k, cfg.Cluster)
	fmt.Printf("  superpixels      %d\n", lm.NumRegions())
	fmt.Printf("  cycles           %.0f (%.2f ms at %.1f GHz)\n",
		r.Cycles, r.Cycles/cfg.Tech.ClockHz*1e3, cfg.Tech.ClockHz/1e9)
	fmt.Printf("  distance calcs   %d\n", r.Work.DistanceCalcs)
	fmt.Printf("  divider ops      %d\n", r.DividerOps)
	fmt.Printf("  DRAM traffic     %.2f MB\n", float64(r.TrafficBytes)/1e6)
	fmt.Printf("  scratchpad R/W   %d / %d\n", r.ScratchReads, r.ScratchWrites)

	if *overlay != "" {
		out := imgio.Overlay(im, lm, 255, 0, 0)
		if err := imgio.WriteImageFile(*overlay, out); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", *overlay)
	}
	if *labels != "" {
		if err := imgio.WriteImageFile(*labels, imgio.LabelColors(lm)); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", *labels)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sslic-hwsim:", err)
	os.Exit(1)
}
