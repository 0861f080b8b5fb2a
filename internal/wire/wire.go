// Package wire is the versioned binary wire layer for label maps: the
// formats a segmentation service ships over the network, shared by the
// one-shot POST path today and the batch/streaming paths to come.
//
// Three variants share a common header (4-byte magic, then width and
// height as little-endian uint32):
//
//	SLBL  raw      n×int32 little-endian labels — fixed 4·n payload,
//	               trivially seekable; also the label-map file format
//	               (sslic -save-labels, sslic-eval -precomputed).
//	SLBR  RLE      runs of (uvarint length ≥ 1, zigzag-varint label).
//	               Superpixel label maps are long horizontal runs by
//	               construction — the paper's raster-order assignment
//	               memory readout — so this typically lands well under
//	               a byte per pixel.
//	SLBD  delta    records of (uvarint skip, uvarint length ≥ 1,
//	               zigzag-varint label) against a base map: skip pixels
//	               that kept their base label, then a run that changed
//	               to one new label. A nil base means all-Unassigned,
//	               which degrades to RLE with one extra byte per run.
//	               Consecutive video frames share most labels (warm-
//	               started centers barely move), so deltas approach
//	               zero bytes for static scenes.
//
// Both variable-length codings are canonical — maximal skip, then
// maximal run — so equal inputs encode to equal bytes, goldens are
// stable, and the fuzz harness can assert encode∘decode∘encode is the
// identity on bytes, not just on labels.
//
// Decoders validate the header against the caller's pixel budget before
// any pixel-sized allocation (mirroring the PNG-amplification fix in
// the image decoders), and every run is bounds-checked against the
// remaining pixel count, so a hostile stream can neither over-allocate
// nor write out of bounds.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"sslic/internal/imgio"
)

// Magic strings of the three framings.
const (
	magicRaw   = "SLBL"
	magicRLE   = "SLBR"
	magicDelta = "SLBD"
)

// maxDim bounds each header dimension, matching the image decoders.
const maxDim = 1 << 20

// Format selects a label-map wire encoding.
type Format int

const (
	// Raw is the fixed-size SLBL framing.
	Raw Format = iota
	// RLE is the run-length SLBR framing.
	RLE
	// Delta is the base-relative SLBD framing.
	Delta
)

// ParseFormat maps the ?format= tokens to a Format.
func ParseFormat(s string) (Format, bool) {
	switch s {
	case "slbl":
		return Raw, true
	case "slbl-rle":
		return RLE, true
	case "slbl-delta":
		return Delta, true
	}
	return 0, false
}

// String returns the ?format= token of f.
func (f Format) String() string {
	switch f {
	case Raw:
		return "slbl"
	case RLE:
		return "slbl-rle"
	case Delta:
		return "slbl-delta"
	}
	return fmt.Sprintf("wire.Format(%d)", int(f))
}

// ContentType returns the MIME type stamped on responses in format f.
func (f Format) ContentType() string {
	switch f {
	case RLE:
		return "application/x-sslic-labels-rle"
	case Delta:
		return "application/x-sslic-labels-delta"
	default:
		return "application/x-sslic-labels"
	}
}

// ErrTooLarge reports a stream whose header claims more pixels than the
// caller's budget, detected before any pixel-sized allocation.
var ErrTooLarge = errors.New("wire: label map exceeds pixel budget")

// ErrBaseMismatch reports a delta encode/decode whose base map has
// different dimensions than the stream.
var ErrBaseMismatch = errors.New("wire: delta base dimensions mismatch")

// chunkWriter batches small writes into a stack-friendly buffer so
// encoders hit the underlying writer in ~4KB slabs without allocating a
// bufio.Writer per response.
type chunkWriter struct {
	w   io.Writer
	n   int
	buf [4096]byte
}

func (cw *chunkWriter) room(need int) error {
	if cw.n+need <= len(cw.buf) {
		return nil
	}
	return cw.flush()
}

func (cw *chunkWriter) flush() error {
	if cw.n == 0 {
		return nil
	}
	_, err := cw.w.Write(cw.buf[:cw.n])
	cw.n = 0
	return err
}

func (cw *chunkWriter) header(magic string, w, h int) error {
	copy(cw.buf[0:4], magic)
	binary.LittleEndian.PutUint32(cw.buf[4:], uint32(w))
	binary.LittleEndian.PutUint32(cw.buf[8:], uint32(h))
	cw.n = 12
	return nil
}

// uvarint appends v; the caller must have reserved room.
func (cw *chunkWriter) uvarint(v uint64) {
	cw.n += binary.PutUvarint(cw.buf[cw.n:], v)
}

// varint appends v zigzag-coded; the caller must have reserved room.
func (cw *chunkWriter) varint(v int64) {
	cw.n += binary.PutVarint(cw.buf[cw.n:], v)
}

// Encode writes lm in format f. base is consulted only by Delta (nil
// means the all-Unassigned base) and must match lm's dimensions.
func Encode(w io.Writer, f Format, lm, base *imgio.LabelMap) error {
	switch f {
	case RLE:
		return EncodeRLE(w, lm)
	case Delta:
		return EncodeDelta(w, lm, base)
	default:
		return EncodeRaw(w, lm)
	}
}

// EncodeRaw writes lm in the fixed-size SLBL framing.
func EncodeRaw(w io.Writer, lm *imgio.LabelMap) error {
	cw := chunkWriter{w: w}
	cw.header(magicRaw, lm.W, lm.H)
	for _, v := range lm.Labels {
		if err := cw.room(4); err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(cw.buf[cw.n:], uint32(v))
		cw.n += 4
	}
	return cw.flush()
}

// EncodeRLE writes lm in the run-length SLBR framing: maximal runs of
// (uvarint length, zigzag-varint label) covering exactly W·H pixels.
func EncodeRLE(w io.Writer, lm *imgio.LabelMap) error {
	cw := chunkWriter{w: w}
	cw.header(magicRLE, lm.W, lm.H)
	labels := lm.Labels
	for i := 0; i < len(labels); {
		j := i + 1
		for j < len(labels) && labels[j] == labels[i] {
			j++
		}
		// A run record needs at most 10+5 varint bytes.
		if err := cw.room(15); err != nil {
			return err
		}
		cw.uvarint(uint64(j - i))
		cw.varint(int64(labels[i]))
		i = j
	}
	return cw.flush()
}

// EncodeDelta writes lm in the SLBD framing relative to base: records
// of (uvarint skip over unchanged pixels, uvarint run length, zigzag-
// varint new label), where the run is the maximal stretch of changed
// pixels sharing one new label. A trailing skip that reaches the end is
// encoded (the stream must account for every pixel); nil base means
// all-Unassigned.
func EncodeDelta(w io.Writer, lm, base *imgio.LabelMap) error {
	if base != nil && (base.W != lm.W || base.H != lm.H) {
		return fmt.Errorf("%w: base %dx%d vs %dx%d",
			ErrBaseMismatch, base.W, base.H, lm.W, lm.H)
	}
	cw := chunkWriter{w: w}
	cw.header(magicDelta, lm.W, lm.H)
	labels := lm.Labels
	baseAt := func(i int) int32 { return imgio.Unassigned }
	if base != nil {
		baseAt = func(i int) int32 { return base.Labels[i] }
	}
	for i := 0; i < len(labels); {
		skip := 0
		for i < len(labels) && labels[i] == baseAt(i) {
			i++
			skip++
		}
		if err := cw.room(25); err != nil {
			return err
		}
		cw.uvarint(uint64(skip))
		if i == len(labels) {
			break
		}
		j := i + 1
		for j < len(labels) && labels[j] != baseAt(j) && labels[j] == labels[i] {
			j++
		}
		cw.uvarint(uint64(j - i))
		cw.varint(int64(labels[i]))
		i = j
	}
	return cw.flush()
}

// Decode reads one label map from r, sniffing the framing from its
// magic. maxPixels bounds what the header may claim before any
// pixel-sized allocation. base is consulted only by the delta framing
// (nil means all-Unassigned) and must match the stream's dimensions.
func Decode(r io.Reader, maxPixels int, base *imgio.LabelMap) (*imgio.LabelMap, error) {
	br := bufio.NewReaderSize(r, 4096)
	var hdr [12]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("wire: reading header: %w", err)
	}
	w := int(binary.LittleEndian.Uint32(hdr[4:]))
	h := int(binary.LittleEndian.Uint32(hdr[8:]))
	if w <= 0 || h <= 0 || w > maxDim || h > maxDim {
		return nil, fmt.Errorf("wire: invalid dimensions %dx%d", w, h)
	}
	if w*h > maxPixels {
		return nil, fmt.Errorf("wire: %dx%d: %w", w, h, ErrTooLarge)
	}
	magic := string(hdr[:4])
	lm := &imgio.LabelMap{W: w, H: h, Labels: make([]int32, w*h)}
	switch magic {
	case magicRaw:
		if err := decodeRaw(br, lm.Labels); err != nil {
			return nil, err
		}
	case magicRLE:
		if err := decodeRLE(br, lm.Labels); err != nil {
			return nil, err
		}
	case magicDelta:
		if base != nil && (base.W != w || base.H != h) {
			return nil, fmt.Errorf("%w: base %dx%d vs %dx%d",
				ErrBaseMismatch, base.W, base.H, w, h)
		}
		if err := decodeDelta(br, lm.Labels, base); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("wire: unrecognized magic %q", magic)
	}
	return lm, nil
}

func decodeRaw(br *bufio.Reader, labels []int32) error {
	var chunk [4 * 1024]byte
	for i := 0; i < len(labels); {
		m := len(labels) - i
		if m > 1024 {
			m = 1024
		}
		if _, err := io.ReadFull(br, chunk[:4*m]); err != nil {
			return fmt.Errorf("wire: reading labels: %w", err)
		}
		for j := 0; j < m; j++ {
			labels[i+j] = int32(binary.LittleEndian.Uint32(chunk[4*j:]))
		}
		i += m
	}
	return nil
}

// readLabel reads one zigzag-varint label, rejecting values outside
// int32.
func readLabel(br *bufio.Reader) (int32, error) {
	v, err := binary.ReadVarint(br)
	if err != nil {
		return 0, fmt.Errorf("wire: reading label: %w", err)
	}
	if v < -1<<31 || v > 1<<31-1 {
		return 0, fmt.Errorf("wire: label %d out of int32 range", v)
	}
	return int32(v), nil
}

func decodeRLE(br *bufio.Reader, labels []int32) error {
	for pos := 0; pos < len(labels); {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("wire: reading run length: %w", err)
		}
		if n < 1 || n > uint64(len(labels)-pos) {
			return fmt.Errorf("wire: run of %d at pixel %d overruns %d-pixel map",
				n, pos, len(labels))
		}
		v, err := readLabel(br)
		if err != nil {
			return err
		}
		for end := pos + int(n); pos < end; pos++ {
			labels[pos] = v
		}
	}
	return nil
}

func decodeDelta(br *bufio.Reader, labels []int32, base *imgio.LabelMap) error {
	// Materialize the base first; skipped stretches keep these values.
	if base == nil {
		for i := range labels {
			labels[i] = imgio.Unassigned
		}
	} else {
		copy(labels, base.Labels)
	}
	for pos := 0; pos < len(labels); {
		skip, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("wire: reading skip: %w", err)
		}
		if skip > uint64(len(labels)-pos) {
			return fmt.Errorf("wire: skip of %d at pixel %d overruns %d-pixel map",
				skip, pos, len(labels))
		}
		pos += int(skip)
		if pos == len(labels) {
			break
		}
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("wire: reading run length: %w", err)
		}
		if n < 1 || n > uint64(len(labels)-pos) {
			return fmt.Errorf("wire: run of %d at pixel %d overruns %d-pixel map",
				n, pos, len(labels))
		}
		v, err := readLabel(br)
		if err != nil {
			return err
		}
		for end := pos + int(n); pos < end; pos++ {
			labels[pos] = v
		}
	}
	return nil
}
