package imgio

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
)

// The PPM/PGM codecs support the binary (P5/P6) and ASCII (P2/P3) variants
// of the netpbm formats with 8-bit samples. These are the interchange
// formats used by the example programs and the dataset generator; they keep
// the repository dependency-free while remaining viewable with standard
// tools.

// EncodePPM writes im as a binary PPM (P6) stream.
func EncodePPM(w io.Writer, im *Image) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "P6\n%d %d\n255\n", im.W, im.H); err != nil {
		return err
	}
	row := make([]byte, im.W*3)
	for y := 0; y < im.H; y++ {
		base := y * im.W
		for x := 0; x < im.W; x++ {
			row[x*3+0] = im.C0[base+x]
			row[x*3+1] = im.C1[base+x]
			row[x*3+2] = im.C2[base+x]
		}
		if _, err := bw.Write(row); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// DecodePPM reads a PPM (P6 or P3) stream into a planar Image.
func DecodePPM(r io.Reader) (*Image, error) {
	br := getReader(r)
	defer putReader(br)
	return decodePPMAlloc(br, maxHeaderPixels, nil)
}

// readBufSize is the size of the decoders' read buffers. A P6 frame is
// de-interleaved straight out of the buffer, one slab per refill, and a
// refill is one Read of up to this many bytes. An HTTP body's Read
// passes a large buffer through to the connection.
const readBufSize = 64 << 10

// readers holds the decoders' read buffers, so a steady-state decode
// allocates none.
var readers = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, readBufSize) }}

// getReader takes a pooled read buffer over r; putReader returns it.
func getReader(r io.Reader) *bufio.Reader {
	br := readers.Get().(*bufio.Reader)
	br.Reset(r)
	return br
}

func putReader(br *bufio.Reader) {
	br.Reset(nil) // drop the reference to the stream
	readers.Put(br)
}

// decodePPMAlloc parses a PPM stream, failing with ErrImageTooLarge
// before any pixel-sized allocation when the header claims more than
// maxPixels. The decode target comes from alloc (nil means NewImage).
// Binary pixel data is de-interleaved straight from br's buffer rather
// than through a full 3·W·H staging buffer, so a steady-state decode
// into a pooled target allocates nothing image-sized.
func decodePPMAlloc(br *bufio.Reader, maxPixels int, alloc ImageAlloc) (*Image, error) {
	magic, err := readToken(br)
	if err != nil {
		return nil, fmt.Errorf("imgio: reading PPM magic: %w", err)
	}
	if magic != "P6" && magic != "P3" {
		return nil, fmt.Errorf("imgio: not a PPM file (magic %q)", magic)
	}
	w, h, maxv, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	if w*h > maxPixels {
		return nil, fmt.Errorf("imgio: PPM %dx%d: %w", w, h, ErrImageTooLarge)
	}
	im := alloc.alloc(w, h)
	n := w * h
	if magic == "P6" {
		var table [256]uint8
		var scale *[256]uint8
		if maxv != 255 {
			scale = &table
			for v := range scale {
				scale[v] = scale8(uint8(v), maxv)
			}
		}
		for i := 0; i < n; {
			// Whole pixels only: a slab never ends inside one.
			if br.Buffered() < 3 {
				if _, err := br.Peek(3); err != nil {
					return nil, fmt.Errorf("imgio: short PPM pixel data: %w", shortPixels(err, i, br.Buffered()))
				}
			}
			// Peeking at no more than is buffered reads nothing and
			// cannot fail; neither can discarding what was peeked.
			buf, _ := br.Peek(br.Buffered())
			m := min(len(buf)/3, n-i)
			deinterleave(im.C0[i:i+m], im.C1[i:i+m], im.C2[i:i+m], buf[:3*m], scale)
			_, _ = br.Discard(3 * m)
			i += m
		}
		return im, nil
	}
	for i := 0; i < n; i++ {
		var v [3]int
		for c := 0; c < 3; c++ {
			v[c], err = readInt(br)
			if err != nil {
				return nil, fmt.Errorf("imgio: PPM ascii pixel %d: %w", i, err)
			}
		}
		im.C0[i] = scale8(uint8(clamp255(v[0])), maxv)
		im.C1[i] = scale8(uint8(clamp255(v[1])), maxv)
		im.C2[i] = scale8(uint8(clamp255(v[2])), maxv)
	}
	return im, nil
}

// EncodePGM writes a single-channel 8-bit PGM (P5). The values slice must
// hold w*h bytes in row-major order.
func EncodePGM(w io.Writer, width, height int, values []uint8) error {
	if len(values) != width*height {
		return fmt.Errorf("imgio: PGM size mismatch: %d values for %dx%d", len(values), width, height)
	}
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "P5\n%d %d\n255\n", width, height); err != nil {
		return err
	}
	if _, err := bw.Write(values); err != nil {
		return err
	}
	return bw.Flush()
}

// DecodePGM reads a PGM (P5 or P2) stream, returning width, height and the
// row-major sample slice.
func DecodePGM(r io.Reader) (int, int, []uint8, error) {
	br := bufio.NewReader(r)
	magic, err := readToken(br)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("imgio: reading PGM magic: %w", err)
	}
	if magic != "P5" && magic != "P2" {
		return 0, 0, nil, fmt.Errorf("imgio: not a PGM file (magic %q)", magic)
	}
	w, h, maxv, err := readHeader(br)
	if err != nil {
		return 0, 0, nil, err
	}
	n := w * h
	out := make([]uint8, n)
	if magic == "P5" {
		if _, err := io.ReadFull(br, out); err != nil {
			return 0, 0, nil, fmt.Errorf("imgio: short PGM pixel data: %w", err)
		}
		for i := range out {
			out[i] = scale8(out[i], maxv)
		}
		return w, h, out, nil
	}
	for i := 0; i < n; i++ {
		v, err := readInt(br)
		if err != nil {
			return 0, 0, nil, fmt.Errorf("imgio: PGM ascii pixel %d: %w", i, err)
		}
		out[i] = scale8(uint8(clamp255(v)), maxv)
	}
	return w, h, out, nil
}

// WritePPMFile encodes im to path as binary PPM.
func WritePPMFile(path string, im *Image) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := EncodePPM(f, im); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadPPMFile decodes the PPM file at path.
func ReadPPMFile(path string) (*Image, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return DecodePPM(f)
}

// maxHeaderDim and maxHeaderPixels bound what a netpbm header may claim
// before any allocation happens, so hostile inputs cannot trigger huge
// or out-of-range allocations.
const (
	maxHeaderDim    = 1 << 20
	maxHeaderPixels = 1 << 28
)

func readHeader(br *bufio.Reader) (w, h, maxv int, err error) {
	if w, err = readInt(br); err != nil {
		return 0, 0, 0, fmt.Errorf("imgio: reading width: %w", err)
	}
	if h, err = readInt(br); err != nil {
		return 0, 0, 0, fmt.Errorf("imgio: reading height: %w", err)
	}
	if maxv, err = readInt(br); err != nil {
		return 0, 0, 0, fmt.Errorf("imgio: reading maxval: %w", err)
	}
	if w <= 0 || h <= 0 || w > maxHeaderDim || h > maxHeaderDim || w*h > maxHeaderPixels {
		return 0, 0, 0, fmt.Errorf("imgio: invalid or oversized dimensions %dx%d", w, h)
	}
	if maxv <= 0 || maxv > 255 {
		return 0, 0, 0, fmt.Errorf("imgio: unsupported maxval %d (only 8-bit)", maxv)
	}
	return w, h, maxv, nil
}

// readToken reads the next whitespace-delimited token, skipping '#' comments.
func readToken(br *bufio.Reader) (string, error) {
	var tok []byte
	for {
		b, err := br.ReadByte()
		if err != nil {
			if err == io.EOF && len(tok) > 0 {
				return string(tok), nil
			}
			return "", err
		}
		switch {
		case b == '#':
			if _, err := br.ReadString('\n'); err != nil && err != io.EOF {
				return "", err
			}
		case b == ' ' || b == '\t' || b == '\n' || b == '\r':
			if len(tok) > 0 {
				return string(tok), nil
			}
		default:
			tok = append(tok, b)
		}
	}
}

func readInt(br *bufio.Reader) (int, error) {
	tok, err := readToken(br)
	if err != nil {
		return 0, err
	}
	v, err := strconv.Atoi(tok)
	if err != nil {
		return 0, fmt.Errorf("invalid integer %q", tok)
	}
	return v, nil
}

// shortPixelBlock is the block, in pixels, that a short P6 body's
// error is counted in.
const shortPixelBlock = 1024

// shortPixels names how a P6 body ran short, from the pixels decoded
// and the bytes of a partial pixel left buffered: pixel data that stops
// inside a block of shortPixelBlock pixels ended unexpectedly
// (io.ErrUnexpectedEOF), one that stops at a block's start, a header
// with no pixels included, just ended (io.EOF). The request path's 400
// body carries the error's text.
func shortPixels(err error, decoded, buffered int) error {
	if err == io.EOF && (buffered > 0 || decoded%shortPixelBlock != 0) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// deinterleave splits the interleaved RGB samples of src into the
// planes c0, c1 and c2, one pixel per plane element, through scale
// unless it is nil (maxval 255).
func deinterleave(c0, c1, c2, src []uint8, scale *[256]uint8) {
	c1, c2, src = c1[:len(c0)], c2[:len(c0)], src[:3*len(c0)]
	if scale == nil {
		for j := range c0 {
			p := src[3*j : 3*j+3 : 3*j+3]
			c0[j], c1[j], c2[j] = p[0], p[1], p[2]
		}
		return
	}
	for j := range c0 {
		p := src[3*j : 3*j+3 : 3*j+3]
		c0[j], c1[j], c2[j] = scale[p[0]], scale[p[1]], scale[p[2]]
	}
}

func scale8(v uint8, maxv int) uint8 {
	if maxv == 255 {
		return v
	}
	return uint8(int(v) * 255 / maxv)
}

func clamp255(v int) int {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return v
}
