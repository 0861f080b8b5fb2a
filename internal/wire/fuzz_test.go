package wire

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
	"testing/iotest"

	"sslic/internal/imgio"
)

// warmStream returns the delta stream of the warm 640×480 pair (frame
// 2 against frame 1 of the phase-benchmark chain) and the lengths its
// seeds and tests cut it to: inside the header, at its end, inside the
// first record, at the reader's first refill, one byte short of the end
// of the first record that straddles a refill, at the stream's middle
// and one byte short of its end. Decode reads through a 4 KiB buffer
// that refills only once empty, so its refills fall at the multiples of
// 4096 bytes.
func warmStream(tb testing.TB) (stream []byte, cuts []int) {
	tb.Helper()
	pair, err := warmVGA()
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeDelta(&buf, pair[1], pair[0]); err != nil {
		tb.Fatal(err)
	}
	stream = buf.Bytes()
	const refill = 4096
	straddle := 0
	for off, pos := 12, 0; straddle == 0 && pos < pair[1].W*pair[1].H; {
		rec := off
		skip, n := binary.Uvarint(stream[off:])
		off, pos = off+n, pos+int(skip)
		if pos < pair[1].W*pair[1].H {
			run, n := binary.Uvarint(stream[off:])
			off, pos = off+n, pos+int(run)
			_, n = binary.Varint(stream[off:])
			off += n
		}
		if rec/refill != (off-1)/refill {
			straddle = off - 1
		}
	}
	if straddle == 0 {
		tb.Fatal("no record of the warm stream straddles a refill of the reader")
	}
	return stream, []int{5, 12, 13, refill, straddle, len(stream) / 2, len(stream) - 1}
}

// labelMapFromBytes deterministically builds a small label map from fuzz
// input: two dimension bytes, then labels drawn from the remaining data
// (zigzag so negatives appear, Unassigned included).
func labelMapFromBytes(data []byte) *imgio.LabelMap {
	w, h := 1, 1
	if len(data) > 0 {
		w = 1 + int(data[0])%64
	}
	if len(data) > 1 {
		h = 1 + int(data[1])%64
	}
	data = data[min(len(data), 2):]
	lm := &imgio.LabelMap{W: w, H: h, Labels: make([]int32, w*h)}
	for i := range lm.Labels {
		var b byte
		if len(data) > 0 {
			b = data[i%len(data)]
		}
		v := int32(b>>1) - 1 // [-1, 126]: Unassigned plus small positives
		if b&1 == 1 && i > 0 {
			v = lm.Labels[i-1] // bias toward runs, like real superpixels
		}
		lm.Labels[i] = v
	}
	return lm
}

// FuzzSLBLRLERoundTrip asserts that arbitrary label maps survive the
// RLE framing byte-exactly: decode(encode(m)) == m, and re-encoding the
// decode reproduces the stream byte-for-byte (canonical coding).
func FuzzSLBLRLERoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 4, 0, 1, 2, 3})
	f.Add([]byte{63, 63, 255, 255, 0, 0, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		lm := labelMapFromBytes(data)
		var buf bytes.Buffer
		if err := EncodeRLE(&buf, lm); err != nil {
			t.Fatalf("encode: %v", err)
		}
		stream := append([]byte(nil), buf.Bytes()...)
		got, err := Decode(&buf, lm.W*lm.H, nil)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.W != lm.W || got.H != lm.H {
			t.Fatalf("dims %dx%d, want %dx%d", got.W, got.H, lm.W, lm.H)
		}
		for i := range lm.Labels {
			if got.Labels[i] != lm.Labels[i] {
				t.Fatalf("label[%d] = %d, want %d", i, got.Labels[i], lm.Labels[i])
			}
		}
		var again bytes.Buffer
		if err := EncodeRLE(&again, got); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(stream, again.Bytes()) {
			t.Fatal("re-encode not byte-identical: coding is not canonical")
		}
	})
}

// FuzzDeltaDecode drives the delta codec three ways: arbitrary maps
// and bases must round-trip byte-exactly; the raw fuzz bytes are also
// fed straight into Decode as a hostile stream, which must either fail
// cleanly or yield a map within the pixel budget — never panic or
// allocate past it; and a stream that claims the warm 640×480 pair's
// dimensions is decoded against that pair's base, by the buffered parse
// and byte by byte, which must agree on the labels or on the error.
// The seeds include the pair's real delta stream, whole and cut.
func FuzzDeltaDecode(f *testing.F) {
	pair, err := warmVGA()
	if err != nil {
		f.Fatal(err)
	}
	warmBase := pair[0]
	stream, cuts := warmStream(f)
	for _, n := range cuts {
		f.Add(stream[:n])
	}
	f.Add(stream)
	f.Add([]byte{})
	f.Add([]byte("SLBD\x02\x00\x00\x00\x02\x00\x00\x00\x00\x04\x02"))
	f.Add([]byte{8, 8, 1, 2, 3, 4, 5, 6, 7, 8})
	// Raw SLBL streams: valid, truncated and hostile headers.
	raw := func(w, h int) []byte {
		lm := &imgio.LabelMap{W: w, H: h, Labels: make([]int32, w*h)}
		for i := range lm.Labels {
			lm.Labels[i] = int32(i % 5)
		}
		var buf bytes.Buffer
		if err := EncodeRaw(&buf, lm); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, s := range [][]byte{
		raw(4, 3),
		raw(1, 1),
		raw(4, 3)[:7],  // truncated header
		raw(4, 3)[:20], // truncated payload
		[]byte("SLBX\x04\x00\x00\x00\x03\x00\x00\x00"), // bad magic
		[]byte("SLBL\x00\x00\x00\x00\x00\x00\x00\x00"), // zero dims
		[]byte("SLBL\xff\xff\xff\xff\x01\x00\x00\x00"), // dim wraps negative
		[]byte("SLBL\xff\xff\xff\x7f\xff\xff\xff\x7f"), // absurd dims
		[]byte(""),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Round-trip: derive frame and base from the same bytes so they
		// mostly agree (realistic video deltas) but differ in spots.
		lm := labelMapFromBytes(data)
		base := labelMapFromBytes(data)
		for i := 0; i < len(base.Labels); i += 7 {
			base.Labels[i] ^= 1
		}
		for _, b := range []*imgio.LabelMap{nil, base, lm} {
			var buf bytes.Buffer
			if err := EncodeDelta(&buf, lm, b); err != nil {
				t.Fatalf("encode: %v", err)
			}
			stream := append([]byte(nil), buf.Bytes()...)
			got, err := Decode(&buf, lm.W*lm.H, b)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			for i := range lm.Labels {
				if got.Labels[i] != lm.Labels[i] {
					t.Fatalf("label[%d] = %d, want %d", i, got.Labels[i], lm.Labels[i])
				}
			}
			var again bytes.Buffer
			if err := EncodeDelta(&again, got, b); err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if !bytes.Equal(stream, again.Bytes()) {
				t.Fatal("re-encode not byte-identical: coding is not canonical")
			}
		}

		// Warm: the input as a stream against the warm base.
		if len(data) >= 12 && string(data[:4]) == magicDelta &&
			binary.LittleEndian.Uint32(data[4:]) == uint32(warmBase.W) &&
			binary.LittleEndian.Uint32(data[8:]) == uint32(warmBase.H) {
			n := warmBase.W * warmBase.H
			got, err := Decode(bytes.NewReader(data), n, warmBase)
			slow, slowErr := Decode(iotest.OneByteReader(bytes.NewReader(data)), n, warmBase)
			switch {
			case (err == nil) != (slowErr == nil):
				t.Fatalf("buffered decode error %v, byte-by-byte error %v", err, slowErr)
			case err != nil && err.Error() != slowErr.Error():
				t.Fatalf("buffered decode error %q, byte-by-byte error %q", err, slowErr)
			case err == nil && !slices.Equal(got.Labels, slow.Labels):
				t.Fatal("buffered and byte-by-byte decodes differ")
			}
		}

		// Hostile: the input itself as a stream, tiny pixel budget.
		const budget = 1 << 12
		if got, err := Decode(bytes.NewReader(data), budget, nil); err == nil {
			if got.W*got.H > budget {
				t.Fatalf("decode exceeded budget: %dx%d > %d", got.W, got.H, budget)
			}
			if len(got.Labels) != got.W*got.H {
				t.Fatalf("decode sized %d labels for %dx%d", len(got.Labels), got.W, got.H)
			}
		}
	})
}
