package imgio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"strings"
	"testing"
)

func testPattern(w, h int) *Image {
	im := NewImage(w, h)
	for i := range im.C0 {
		im.C0[i] = uint8(i * 3)
		im.C1[i] = uint8(i * 7)
		im.C2[i] = uint8(255 - i)
	}
	return im
}

// TestDecodeImageSniff round-trips the same image through both stream
// codecs via the sniffing entry point and requires pixel equality.
func TestDecodeImageSniff(t *testing.T) {
	im := testPattern(13, 7)

	var ppm, png bytes.Buffer
	if err := EncodePPM(&ppm, im); err != nil {
		t.Fatal(err)
	}
	if err := EncodePNG(&png, im); err != nil {
		t.Fatal(err)
	}

	for name, buf := range map[string]*bytes.Buffer{"ppm": &ppm, "png": &png} {
		got, err := DecodeImage(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.W != im.W || got.H != im.H {
			t.Fatalf("%s: decoded %dx%d, want %dx%d", name, got.W, got.H, im.W, im.H)
		}
		for i := range im.C0 {
			if got.C0[i] != im.C0[i] || got.C1[i] != im.C1[i] || got.C2[i] != im.C2[i] {
				t.Fatalf("%s: pixel %d differs", name, i)
			}
		}
	}
}

func TestDecodeImageRejectsUnknown(t *testing.T) {
	for _, data := range []string{"", "X", "GIF89a....", "P5\n1 1\n255\nx", "\x89Q"} {
		if _, err := DecodeImage(strings.NewReader(data)); err == nil {
			t.Fatalf("DecodeImage accepted %q", data)
		}
	}
}

// pngChunk assembles one PNG chunk with a correct CRC, so handcrafted
// headers get past the stdlib's integrity check and exercise our bounds.
func pngChunk(typ string, data []byte) []byte {
	var buf bytes.Buffer
	binary.Write(&buf, binary.BigEndian, uint32(len(data)))
	buf.WriteString(typ)
	buf.Write(data)
	crc := crc32.NewIEEE()
	crc.Write([]byte(typ))
	crc.Write(data)
	binary.Write(&buf, binary.BigEndian, crc.Sum32())
	return buf.Bytes()
}

// TestDecodePNGHeaderBounds: a valid PNG header claiming absurd
// dimensions must be rejected before any image-sized allocation.
func TestDecodePNGHeaderBounds(t *testing.T) {
	ihdr := func(w, h uint32) []byte {
		data := make([]byte, 13)
		binary.BigEndian.PutUint32(data[0:], w)
		binary.BigEndian.PutUint32(data[4:], h)
		data[8] = 8 // bit depth
		data[9] = 2 // color type: truecolor
		var buf bytes.Buffer
		buf.Write(pngSignature)
		buf.Write(pngChunk("IHDR", data))
		return buf.Bytes()
	}
	for _, tc := range []struct{ w, h uint32 }{
		{1 << 21, 1},       // width over maxHeaderDim
		{1, 1 << 21},       // height over maxHeaderDim
		{1 << 19, 1 << 19}, // pixel count over maxHeaderPixels
		{0, 4},             // zero width
	} {
		if _, err := DecodePNG(bytes.NewReader(ihdr(tc.w, tc.h))); err == nil {
			t.Fatalf("DecodePNG accepted %dx%d header", tc.w, tc.h)
		}
	}

	// A caller-supplied pixel budget must fail from the header alone —
	// the regression that the server fuzz target found: a tiny compressed
	// payload claiming a within-global-bounds canvas (here 1024×1024
	// against a 256-pixel budget) must yield ErrImageTooLarge, not an
	// image-sized allocation followed by a post-decode check.
	if _, err := DecodeImageLimit(bytes.NewReader(ihdr(1024, 1024)), 256); !errors.Is(err, ErrImageTooLarge) {
		t.Fatalf("DecodeImageLimit over-budget PNG returned %v, want ErrImageTooLarge", err)
	}
}

// TestDecodeImageLimitPPM: the budget applies to the uncompressed codec
// too, and an in-budget frame still decodes.
func TestDecodeImageLimitPPM(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodePPM(&buf, testPattern(8, 8)); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeImageLimit(bytes.NewReader(buf.Bytes()), 16); !errors.Is(err, ErrImageTooLarge) {
		t.Fatalf("over-budget PPM returned %v, want ErrImageTooLarge", err)
	}
	if _, err := DecodeImageLimit(bytes.NewReader(buf.Bytes()), 64); err != nil {
		t.Fatalf("in-budget PPM rejected: %v", err)
	}
}

// chunkReader hands its stream over at most n bytes per Read, as a
// request body does.
type chunkReader struct {
	r io.Reader
	n int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	return c.r.Read(p[:min(len(p), c.n)])
}

// TestDecodeP6Slabs: a P6 frame larger than the read buffer decodes to
// its pixels exactly through readers that split it at every size, so
// that slabs end inside pixels; through maxval 100, every sample maps
// as scale8 maps it, those past maxval too; and a body one byte short,
// a header with no pixels and bodies cut inside and after the first
// slab all fail, through DecodePPM and through the request path's
// decoder, with io.EOF where the pixel data stops at the start of a
// block of shortPixelBlock pixels and io.ErrUnexpectedEOF elsewhere.
func TestDecodeP6Slabs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	im := randomImage(rng, 200, 150) // 90000 bytes of pixels, past readBufSize
	var buf bytes.Buffer
	if err := EncodePPM(&buf, im); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()
	for _, n := range []int{1, 2, 4096, 4097, 1 << 20} {
		got, err := DecodeImageLimitAlloc(&chunkReader{bytes.NewReader(body), n}, maxHeaderPixels, nil)
		if err != nil {
			t.Fatalf("%d bytes per Read: %v", n, err)
		}
		if !imagesEqual(got, im) {
			t.Fatalf("%d bytes per Read: decoded pixels differ", n)
		}
	}

	scaled := []byte("P6\n256 1\n100\n")
	for v := 0; v < 256; v++ {
		scaled = append(scaled, byte(v), byte(255-v), byte(v/2))
	}
	got, err := DecodePPM(bytes.NewReader(scaled))
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 256; v++ {
		c0, c1, c2 := got.At(v, 0)
		if c0 != scale8(uint8(v), 100) || c1 != scale8(uint8(255-v), 100) || c2 != scale8(uint8(v/2), 100) {
			t.Fatalf("maxval 100, pixel %d: (%d, %d, %d)", v, c0, c1, c2)
		}
	}

	header := len(body) - 3*im.W*im.H
	for _, tc := range []struct {
		n    int
		want error
	}{
		{len(body) - 1, io.ErrUnexpectedEOF},
		{header, io.EOF},
		{header + 5, io.ErrUnexpectedEOF},
		{header + 3*shortPixelBlock, io.EOF},
		{header + 3*shortPixelBlock + 3, io.ErrUnexpectedEOF},
		{header + readBufSize, io.ErrUnexpectedEOF},
	} {
		if _, err := DecodePPM(bytes.NewReader(body[:tc.n])); !errors.Is(err, tc.want) {
			t.Errorf("DecodePPM of %d of %d bytes: %v, want %v", tc.n, len(body), err, tc.want)
		}
		if _, err := DecodeImageLimitAlloc(bytes.NewReader(body[:tc.n]), maxHeaderPixels, nil); !errors.Is(err, tc.want) {
			t.Errorf("DecodeImageLimitAlloc of %d of %d bytes: %v, want %v", tc.n, len(body), err, tc.want)
		}
	}
}

// decodeSink keeps BenchmarkDecodePPM's images from being optimised
// away.
var decodeSink *Image

// BenchmarkDecodePPM times the request path's P6 decode of a frame at
// the sizes of perfbench's streams (640×480) and hd_pipeline (1280×720)
// workloads, read through a reader that returns at most 4 KiB per Read,
// as a request body can, into a reused target, as the server's buffer
// pool supplies one.
func BenchmarkDecodePPM(b *testing.B) {
	for _, sz := range []struct{ w, h int }{{640, 480}, {1280, 720}} {
		b.Run(fmt.Sprintf("%dx%d", sz.w, sz.h), func(b *testing.B) {
			var buf bytes.Buffer
			if err := EncodePPM(&buf, randomImage(rand.New(rand.NewSource(1)), sz.w, sz.h)); err != nil {
				b.Fatal(err)
			}
			body := buf.Bytes()
			target := NewImage(sz.w, sz.h)
			alloc := ImageAlloc(func(w, h int) *Image { return target })
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				im, err := DecodeImageLimitAlloc(&chunkReader{bytes.NewReader(body), 4096}, maxHeaderPixels, alloc)
				if err != nil {
					b.Fatal(err)
				}
				decodeSink = im
			}
		})
	}
}
