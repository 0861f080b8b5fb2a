package sslic

// useAVX2 routes nearestRow to the AVX2 row kernel. It is set once, from
// the host's CPUID and XCR0, before any run starts.
var useAVX2 = cpuHasAVX2()

// nearestRow is the row contract of the 9 distance calculators: for each
// i < len(out), the winning lane (0–8) of the pixel at codes[i*step],
// whose x terms are at xt[i*step*fxLanes:]. On a host with AVX2 it runs
// nearestRowAVX2, which computes exactly what nearestRowGo does; the
// bounds are checked here, once per row, since the assembly checks none.
func nearestRow(lf *fxLaneFile, codes []uint32, xt []int64, step int, wL int32, out []uint8) {
	if !useAVX2 || len(out) == 0 {
		nearestRowGo(lf, codes, xt, step, wL, out)
		return
	}
	last := (len(out) - 1) * step
	_ = codes[last]
	_ = xt[last*fxLanes+fxLanes-1]
	nearestRowAVX2(lf, codes, xt, step, wL, out)
}

// nearestRowAVX2 evaluates lanes 0–7 in two 256-bit registers and lane 8
// in general registers (lanes_amd64.s).
//
//go:noescape
func nearestRowAVX2(lf *fxLaneFile, codes []uint32, xt []int64, step int, wL int32, out []uint8)

// cpuHasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers (lanes_amd64.s).
func cpuHasAVX2() bool
