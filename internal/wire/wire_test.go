package wire

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"sslic/internal/imgio"
)

// mapFrom builds a W×H label map from a generator.
func mapFrom(w, h int, f func(i int) int32) *imgio.LabelMap {
	lm := &imgio.LabelMap{W: w, H: h, Labels: make([]int32, w*h)}
	for i := range lm.Labels {
		lm.Labels[i] = f(i)
	}
	return lm
}

// testMaps is a spread of label-map shapes: uniform, striped,
// per-pixel-unique, negative labels, and seeded-random superpixel-ish.
func testMaps(t *testing.T) []*imgio.LabelMap {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	return []*imgio.LabelMap{
		mapFrom(1, 1, func(i int) int32 { return 0 }),
		mapFrom(17, 3, func(i int) int32 { return 7 }),
		mapFrom(16, 16, func(i int) int32 { return int32(i % 4) }),
		mapFrom(16, 16, func(i int) int32 { return int32(i) }),
		mapFrom(9, 5, func(i int) int32 { return imgio.Unassigned }),
		mapFrom(33, 21, func(i int) int32 { return int32(i/13) - 3 }),
		mapFrom(64, 48, func(i int) int32 { return rng.Int31n(8) }),
		mapFrom(5, 4, func(i int) int32 {
			if i%3 == 0 {
				return -1 << 31
			}
			return 1<<31 - 1
		}),
	}
}

// TestRawGolden pins the SLBL framing byte for byte: "SLBL", width and
// height as little-endian uint32, then one little-endian int32 per
// label, on a hand-written map and on one whose payload spans several
// of the encoder's 4 KiB write chunks.
func TestRawGolden(t *testing.T) {
	labels := []int32{0, 1, -1, 258, 1<<31 - 1, -1 << 31}
	small := mapFrom(3, 2, func(i int) int32 { return labels[i] })
	smallWant := []byte("SLBL\x03\x00\x00\x00\x02\x00\x00\x00" +
		"\x00\x00\x00\x00\x01\x00\x00\x00\xff\xff\xff\xff" +
		"\x02\x01\x00\x00\xff\xff\xff\x7f\x00\x00\x00\x80")
	big := mapFrom(70, 40, func(i int) int32 { return int32(i*7 - 3) })
	bigWant := []byte("SLBL\x46\x00\x00\x00\x28\x00\x00\x00")
	for i := range big.Labels {
		v := uint32(i*7 - 3)
		bigWant = append(bigWant, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	for _, tc := range []struct {
		lm   *imgio.LabelMap
		want []byte
	}{{small, smallWant}, {big, bigWant}} {
		var buf bytes.Buffer
		if err := EncodeRaw(&buf, tc.lm); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), tc.want) {
			t.Fatalf("%dx%d: SLBL bytes differ from the golden", tc.lm.W, tc.lm.H)
		}
		got, err := Decode(bytes.NewReader(tc.want), tc.lm.W*tc.lm.H, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.W != tc.lm.W || got.H != tc.lm.H || !slices.Equal(got.Labels, tc.lm.Labels) {
			t.Fatalf("%dx%d: golden does not decode to its map", tc.lm.W, tc.lm.H)
		}
	}
}

func TestRoundTripAllFormats(t *testing.T) {
	for _, lm := range testMaps(t) {
		base := mapFrom(lm.W, lm.H, func(i int) int32 { return int32(i % 5) })
		for _, tc := range []struct {
			name string
			enc  func(buf *bytes.Buffer) error
			base *imgio.LabelMap
		}{
			{"raw", func(b *bytes.Buffer) error { return EncodeRaw(b, lm) }, nil},
			{"rle", func(b *bytes.Buffer) error { return EncodeRLE(b, lm) }, nil},
			{"delta-empty", func(b *bytes.Buffer) error { return EncodeDelta(b, lm, nil) }, nil},
			{"delta-base", func(b *bytes.Buffer) error { return EncodeDelta(b, lm, base) }, base},
			{"delta-self", func(b *bytes.Buffer) error { return EncodeDelta(b, lm, lm) }, lm},
		} {
			var buf bytes.Buffer
			if err := tc.enc(&buf); err != nil {
				t.Fatalf("%s %dx%d: encode: %v", tc.name, lm.W, lm.H, err)
			}
			first := append([]byte(nil), buf.Bytes()...)
			got, err := Decode(&buf, lm.W*lm.H, tc.base)
			if err != nil {
				t.Fatalf("%s %dx%d: decode: %v", tc.name, lm.W, lm.H, err)
			}
			if got.W != lm.W || got.H != lm.H {
				t.Fatalf("%s: dims %dx%d, want %dx%d", tc.name, got.W, got.H, lm.W, lm.H)
			}
			for i := range lm.Labels {
				if got.Labels[i] != lm.Labels[i] {
					t.Fatalf("%s %dx%d: label[%d] = %d, want %d",
						tc.name, lm.W, lm.H, i, got.Labels[i], lm.Labels[i])
				}
			}
			// Canonical: re-encoding the decode must reproduce the bytes.
			var again bytes.Buffer
			var b2 *imgio.LabelMap
			switch tc.name {
			case "delta-base":
				b2 = base
			case "delta-self":
				b2 = lm
			}
			switch {
			case tc.name == "raw":
				err = EncodeRaw(&again, got)
			case tc.name == "rle":
				err = EncodeRLE(&again, got)
			default:
				err = EncodeDelta(&again, got, b2)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first, again.Bytes()) {
				t.Fatalf("%s %dx%d: encode∘decode∘encode not byte-identical", tc.name, lm.W, lm.H)
			}
		}
	}
}

func TestDeltaIdenticalFrameIsTiny(t *testing.T) {
	lm := mapFrom(320, 240, func(i int) int32 { return int32(i / 100) })
	var buf bytes.Buffer
	if err := EncodeDelta(&buf, lm, lm); err != nil {
		t.Fatal(err)
	}
	// Header (12) plus a single skip uvarint covering all 76800 pixels.
	if buf.Len() > 12+3 {
		t.Fatalf("identical-frame delta is %d bytes, want <= 15", buf.Len())
	}
}

func TestRLEBeatsRawOnSuperpixelShapes(t *testing.T) {
	lm := mapFrom(320, 240, func(i int) int32 { return int32((i % 320) / 20) })
	var raw, rle bytes.Buffer
	if err := EncodeRaw(&raw, lm); err != nil {
		t.Fatal(err)
	}
	if err := EncodeRLE(&rle, lm); err != nil {
		t.Fatal(err)
	}
	if rle.Len() >= raw.Len()/10 {
		t.Fatalf("RLE %d bytes vs raw %d: expected >10x on run-heavy maps", rle.Len(), raw.Len())
	}
}

func TestDecodeEnforcesPixelBudget(t *testing.T) {
	lm := mapFrom(100, 100, func(i int) int32 { return 1 })
	var buf bytes.Buffer
	if err := EncodeRLE(&buf, lm); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(bytes.NewReader(buf.Bytes()), 100*100-1, nil); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("decode under budget: err = %v, want ErrTooLarge", err)
	}
	if _, err := Decode(bytes.NewReader(buf.Bytes()), 100*100, nil); err != nil {
		t.Fatalf("decode at exact budget: %v", err)
	}
}

func TestDecodeRejectsHostileStreams(t *testing.T) {
	mk := func(magic string, w, h uint32, tail []byte) []byte {
		b := make([]byte, 12, 12+len(tail))
		copy(b, magic)
		b[4], b[5], b[6], b[7] = byte(w), byte(w>>8), byte(w>>16), byte(w>>24)
		b[8], b[9], b[10], b[11] = byte(h), byte(h>>8), byte(h>>16), byte(h>>24)
		return append(b, tail...)
	}
	cases := []struct {
		name string
		in   []byte
	}{
		{"empty", nil},
		{"bad magic", mk("XXXX", 2, 2, nil)},
		{"zero dims", mk("SLBR", 0, 5, nil)},
		{"raw zero width", mk("SLBL", 0, 1, nil)},
		{"huge dims", mk("SLBR", 1<<21, 1, nil)},
		{"raw absurd dims", mk("SLBL", 1<<31-1, 1<<31-1, nil)},
		{"raw dim wraps negative", mk("SLBL", 1<<32-1, 1, nil)},
		{"rle overrun", mk("SLBR", 2, 2, []byte{200, 1, 0})}, // run of 200 into 4 pixels
		{"rle zero run", mk("SLBR", 2, 2, []byte{0, 0})},
		{"rle truncated", mk("SLBR", 2, 2, []byte{4})},
		{"raw truncated", mk("SLBL", 2, 2, []byte{1, 2, 3})},
		{"delta skip overrun", mk("SLBD", 2, 2, []byte{200, 1})},
		{"delta run overrun", mk("SLBD", 2, 2, []byte{0, 200, 1, 0})},
		{"delta zero run", mk("SLBD", 2, 2, []byte{0, 0, 0})},
		{"truncated header", []byte{0x53, 0x4c}},
	}
	for _, c := range cases {
		if _, err := Decode(bytes.NewReader(c.in), 1<<20, nil); err == nil {
			t.Errorf("%s: decode accepted hostile stream", c.name)
		}
	}
}

func TestDeltaBaseMismatch(t *testing.T) {
	lm := mapFrom(4, 4, func(i int) int32 { return 1 })
	base := mapFrom(5, 4, func(i int) int32 { return 1 })
	if err := EncodeDelta(&bytes.Buffer{}, lm, base); !errors.Is(err, ErrBaseMismatch) {
		t.Fatalf("encode: err = %v, want ErrBaseMismatch", err)
	}
	var buf bytes.Buffer
	if err := EncodeDelta(&buf, lm, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(bytes.NewReader(buf.Bytes()), 1<<20, base); !errors.Is(err, ErrBaseMismatch) {
		t.Fatalf("decode: err = %v, want ErrBaseMismatch", err)
	}
}

func TestParseFormat(t *testing.T) {
	for _, f := range []Format{Raw, RLE, Delta} {
		got, ok := ParseFormat(f.String())
		if !ok || got != f {
			t.Errorf("ParseFormat(%q) = %v, %v", f.String(), got, ok)
		}
		if !strings.HasPrefix(f.ContentType(), "application/x-sslic-labels") {
			t.Errorf("ContentType(%v) = %q", f, f.ContentType())
		}
	}
	if _, ok := ParseFormat("labels"); ok {
		t.Error("ParseFormat accepted non-wire token")
	}
}

// TestDeltaDecodeWarmStream decodes a real warm delta stream, the
// 640×480 pair's, through readers that hand it over whole, byte by
// byte and in halves, so that records fall inside the decoder's
// buffered bytes, across its refills and past them: each decode must
// give frame 2's labels exactly. Every cut of the stream must fail, with
// the same error from every reader.
func TestDeltaDecodeWarmStream(t *testing.T) {
	pair, err := warmVGA()
	if err != nil {
		t.Fatal(err)
	}
	base, cur := pair[0], pair[1]
	stream, cuts := warmStream(t)
	t.Logf("warm 640x480 delta: %d bytes for %d pixels; cuts at %v", len(stream), cur.W*cur.H, cuts)
	readers := []struct {
		name string
		wrap func(r io.Reader) io.Reader
	}{
		{"whole", func(r io.Reader) io.Reader { return r }},
		{"byte by byte", iotest.OneByteReader},
		{"halves", iotest.HalfReader},
	}
	for _, rd := range readers {
		got, err := Decode(rd.wrap(bytes.NewReader(stream)), cur.W*cur.H, base)
		if err != nil {
			t.Fatalf("%s: %v", rd.name, err)
		}
		if !slices.Equal(got.Labels, cur.Labels) {
			t.Fatalf("%s: decode differs from frame 2's labels", rd.name)
		}
	}
	for _, n := range cuts {
		var first error
		for _, rd := range readers {
			_, err := Decode(rd.wrap(bytes.NewReader(stream[:n])), cur.W*cur.H, base)
			switch {
			case err == nil:
				t.Fatalf("%s: a stream cut to %d of %d bytes decoded", rd.name, n, len(stream))
			case first == nil:
				first = err
			case err.Error() != first.Error():
				t.Fatalf("cut to %d bytes: %s decode error %q, whole-reader error %q", n, rd.name, err, first)
			}
		}
	}
}

// TestDeltaDecodeRefusesBadRecordsInBuffer: a bad record the decoder
// finds among its buffered bytes is refused exactly as one read byte by
// byte, with the same error, even when the records after it would make
// the stream account for every pixel.
func TestDeltaDecodeRefusesBadRecordsInBuffer(t *testing.T) {
	hdr := []byte("SLBD\x02\x00\x00\x00\x02\x00\x00\x00")
	valid := []byte{0, 4, 2} // skip 0, a run of 4 of label 1
	for _, tc := range []struct {
		name string
		bad  []byte
	}{
		{"zero run", []byte{0, 0, 2}},
		{"skip overrun", []byte{5}},
		{"skip overrun before a run", []byte{5, 1, 2}},
		{"run overrun", []byte{0, 5, 2}},
		{"label past int32", []byte{0, 1, 0x80, 0x80, 0x80, 0x80, 0x20}},
		{"overlong skip", []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}},
	} {
		stream := append(append(append([]byte(nil), hdr...), tc.bad...), valid...)
		_, err := Decode(bytes.NewReader(stream), 4, nil)
		_, slowErr := Decode(iotest.OneByteReader(bytes.NewReader(stream)), 4, nil)
		if err == nil || slowErr == nil || err.Error() != slowErr.Error() {
			t.Errorf("%s: buffered decode error %v, byte-by-byte error %v", tc.name, err, slowErr)
		}
	}
}
