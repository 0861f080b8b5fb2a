package imgio

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"image/png"
	"io"

	"sslic/internal/faults"
)

// Streaming decode paths: the serving layer receives frames as request
// bodies, not files, so the format has to be sniffed from the leading
// bytes of a reader instead of dispatched on a path extension. The same
// header bounds that protect the netpbm codecs (maxHeaderDim,
// maxHeaderPixels) are enforced for PNG before the stdlib decoder
// allocates anything image-sized, so a hostile header cannot trigger a
// huge allocation from a tiny payload.

// pngSignature is the 8-byte PNG file signature.
var pngSignature = []byte{0x89, 'P', 'N', 'G', '\r', '\n', 0x1a, '\n'}

// ErrImageTooLarge reports an image whose claimed dimensions exceed the
// caller's pixel budget. It is detected from the header, before any
// pixel-sized allocation, so callers can map it to a "too large"
// response rather than a generic parse failure.
var ErrImageTooLarge = errors.New("imgio: image exceeds pixel budget")

// DecodeImage reads one image from r, sniffing the format from its
// magic bytes: the PNG signature selects the PNG decoder, "P6"/"P3"
// select the PPM codec. Anything else is an error.
func DecodeImage(r io.Reader) (*Image, error) {
	return DecodeImageLimit(r, maxHeaderPixels)
}

// DecodeImageLimit is DecodeImage with an explicit pixel budget: an
// image whose header claims more than maxPixels fails with
// ErrImageTooLarge before the pixel decoder allocates. This matters for
// compressed formats (PNG), where a tiny hostile payload can claim an
// enormous canvas.
func DecodeImageLimit(r io.Reader, maxPixels int) (*Image, error) {
	return DecodeImageLimitAlloc(r, maxPixels, nil)
}

// DecodeImageLimitAlloc is DecodeImageLimit with the decode target
// supplied by alloc (nil means fresh NewImage). alloc runs only after
// the header has passed both the format's own bounds and the pixel
// budget, so pooled targets are sized from trusted dimensions and every
// plane byte is overwritten before return.
func DecodeImageLimitAlloc(r io.Reader, maxPixels int, alloc ImageAlloc) (*Image, error) {
	// Fault hook: a failing/slow decoder is the first dependency a frame
	// meets, so chaos schedules start here. Free when injection is off.
	if err := faults.Fire(faults.PointDecode); err != nil {
		return nil, fmt.Errorf("imgio: decoding frame: %w", err)
	}
	br := getReader(r)
	defer putReader(br)
	magic, err := br.Peek(2)
	if err != nil {
		return nil, fmt.Errorf("imgio: sniffing image format: %w", err)
	}
	switch {
	case magic[0] == pngSignature[0] && magic[1] == pngSignature[1]:
		return decodePNGLimitAlloc(br, maxPixels, alloc)
	case magic[0] == 'P' && (magic[1] == '6' || magic[1] == '3'):
		return decodePPMAlloc(br, maxPixels, alloc)
	default:
		return nil, fmt.Errorf("imgio: unrecognized image format (magic %q)", magic)
	}
}

// DecodePNG reads a PNG stream into a planar Image, discarding alpha.
// The IHDR dimensions are validated against the same bounds as the
// netpbm headers before the pixel decoder runs.
func DecodePNG(r io.Reader) (*Image, error) {
	return decodePNGLimitAlloc(bufio.NewReader(r), maxHeaderPixels, nil)
}

func decodePNGLimitAlloc(br *bufio.Reader, maxPixels int, alloc ImageAlloc) (*Image, error) {
	// The signature plus the complete IHDR chunk is 33 bytes; DecodeConfig
	// on that prefix yields the claimed dimensions without consuming br.
	hdr, err := br.Peek(33)
	if err != nil {
		return nil, fmt.Errorf("imgio: reading PNG header: %w", err)
	}
	cfg, err := png.DecodeConfig(bytes.NewReader(hdr))
	if err != nil {
		return nil, fmt.Errorf("imgio: PNG header: %w", err)
	}
	if cfg.Width <= 0 || cfg.Height <= 0 ||
		cfg.Width > maxHeaderDim || cfg.Height > maxHeaderDim ||
		cfg.Width*cfg.Height > maxHeaderPixels {
		return nil, fmt.Errorf("imgio: invalid or oversized PNG dimensions %dx%d", cfg.Width, cfg.Height)
	}
	if cfg.Width*cfg.Height > maxPixels {
		return nil, fmt.Errorf("imgio: PNG %dx%d: %w", cfg.Width, cfg.Height, ErrImageTooLarge)
	}
	src, err := png.Decode(br)
	if err != nil {
		return nil, fmt.Errorf("imgio: decoding PNG: %w", err)
	}
	// The stdlib decoder owns its interleaved buffer; de-interleaving
	// into the caller-supplied planes is the copy that replaces a fresh
	// 3·W·H allocation.
	sb := src.Bounds()
	out := alloc.alloc(sb.Dx(), sb.Dy())
	FromGoImageInto(out, src)
	return out, nil
}

// EncodePNG writes im as a PNG stream, interpreting the channels as RGB.
func EncodePNG(w io.Writer, im *Image) error {
	return png.Encode(w, im.ToGoImage())
}
