package simd

import (
	"math/rand"
	"slices"
	"testing"
)

// TestCompareKernelContract holds NotEqual, the AVX2 kernel on a host
// that has it, to notEqualGo: every length 0–300 at every start offset
// 0–7 of both rows, on rows that are all equal, all different and
// random (about one pixel in five differs). Every mask word the call
// owns is pre-set to garbage, so a word it fails to write shows, and
// the word past them must stay untouched.
func TestCompareKernelContract(t *testing.T) {
	const maxLen, maxOff = 300, 8
	rng := rand.New(rand.NewSource(1))
	base := make([]int32, maxLen+maxOff)
	for i := range base {
		base[i] = rng.Int31n(1000) - 500
	}
	rows := map[string]func(i int) int32{
		"all equal":     func(i int) int32 { return base[i] },
		"all different": func(i int) int32 { return base[i] ^ 1<<(i%32) },
		"random": func(i int) int32 {
			if rng.Intn(5) == 0 {
				return base[i] + 1 + rng.Int31n(3)
			}
			return base[i]
		},
	}
	const sentinel = 0x5a5a_a5a5_dead_beef
	got := make([]uint64, Words(maxLen)+1)
	want := make([]uint64, Words(maxLen)+1)
	calls := 0
	for name, gen := range rows {
		for oa := 0; oa < maxOff; oa++ {
			for ob := 0; ob < maxOff; ob++ {
				// Row b at offset ob holds the pattern of pixel i at
				// b[ob+i], compared with a[oa+i] = base[i].
				a := make([]int32, maxLen+maxOff)
				b := make([]int32, maxLen+maxOff)
				for i := 0; i < maxLen; i++ {
					a[oa+i], b[ob+i] = base[i], gen(i)
				}
				for n := 0; n <= maxLen; n++ {
					for i := range got {
						got[i], want[i] = sentinel, sentinel
					}
					NotEqual(got, a[oa:oa+n], b[ob:ob+n])
					notEqualGo(want[:Words(n)], a[oa:oa+n], b[ob:ob+n])
					calls++
					if !slices.Equal(got, want) {
						t.Fatalf("%s, length %d, offsets %d and %d: NotEqual %x, Go loop %x",
							name, n, oa, ob, got[:Words(n)+1], want[:Words(n)+1])
					}
				}
			}
		}
	}
	if !AVX2() {
		t.Logf("no AVX2 on this host: %d rows ran the Go loop alone", calls)
		return
	}
	t.Logf("avx2 compare kernel: %d rows, lengths 0–%d at offsets 0–%d, match the Go loop", calls, maxLen, maxOff-1)
}

// TestNotEqualSpec pins the Go loop on hand-counted rows: bit i of the
// mask is pixel i, and bits past the row are clear.
func TestNotEqualSpec(t *testing.T) {
	a := make([]int32, 70)
	b := make([]int32, 70)
	b[0], b[5], b[63], b[64], b[69] = 1, -1, 7, 7, 2
	for _, f := range []func(dst []uint64, a, b []int32){NotEqual, notEqualGo} {
		dst := []uint64{^uint64(0), ^uint64(0)}
		f(dst, a, b)
		if want := []uint64{1 | 1<<5 | 1<<63, 1 | 1<<5}; !slices.Equal(dst, want) {
			t.Fatalf("mask %x, want %x", dst, want)
		}
	}
}

// maskSink keeps BenchmarkNotEqual's calls from being optimised away.
var maskSink [(1280 + 63) / 64]uint64

// BenchmarkNotEqual compares two rows of a 1280-pixel frame, 10% of
// their pixels different.
func BenchmarkNotEqual(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, y := make([]int32, 1280), make([]int32, 1280)
	for i := range x {
		x[i], y[i] = int32(i/20), int32(i/20)
		if rng.Intn(10) == 0 {
			y[i]++
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NotEqual(maskSink[:], x, y)
	}
}
