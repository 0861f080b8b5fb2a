//go:build race

package main

// The race detector slows segmentation about tenfold; the smoke window
// grows so that every workload still delivers the 100 frames a
// supported p90 needs.
const smokeSeconds = 10
