// Package simd holds the host's one CPUID probe and the row-compare
// kernel that the per-pixel walks outside the segmentation core use.
//
// NotEqual turns two int32 rows into a bitmask, 64 pixels to a word.
// On an amd64 host with AVX2 it compares 8 pixels to a YMM register
// (simd_amd64.s); elsewhere, and for the last len mod 8 pixels, the Go
// loop notEqualGo, its specification, does the same.
package simd

// AVX2 reports whether the host has AVX2 and its OS saves the YMM
// registers. The probe runs once, at package init.
func AVX2() bool { return avx2 }

// Words is how many 64-pixel mask words hold n pixels.
func Words(n int) int { return (n + 63) / 64 }

// NotEqual sets bit i%64 of dst[i/64] when a[i] != b[i] and clears it
// otherwise, for every i < len(a), and clears the bits of the last word
// past len(a). Words of dst past Words(len(a)) are not touched. b must
// hold at least len(a) labels and dst at least Words(len(a)) words.
func NotEqual(dst []uint64, a, b []int32) {
	n := len(a)
	b, dst = b[:n], dst[:Words(n)]
	if !avx2 || n < 8 {
		notEqualGo(dst, a, b)
		return
	}
	// The kernel writes the words of the first n &^ 7 pixels; the last
	// n mod 8 all fall into the word of pixel n &^ 7.
	m := n &^ 7
	notEqualAVX2(&dst[0], &a[0], &b[0], m)
	if m == n {
		return
	}
	var word uint64
	if m%64 != 0 {
		word = dst[m/64]
	}
	for i := m; i < n; i++ {
		if a[i] != b[i] {
			word |= 1 << (i % 64)
		}
	}
	dst[m/64] = word
}

// notEqualGo is NotEqual's specification, one pixel at a time.
func notEqualGo(dst []uint64, a, b []int32) {
	for w := range dst {
		var word uint64
		for j, i := 0, w*64; j < 64 && i < len(a); j, i = j+1, i+1 {
			if a[i] != b[i] {
				word |= 1 << j
			}
		}
		dst[w] = word
	}
}
