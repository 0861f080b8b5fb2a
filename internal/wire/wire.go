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
//	               A frame identical to its base encodes to one skip
//	               (TestDeltaIdenticalFrameIsTiny). A warm panning
//	               stream is far from that: connectivity numbers the
//	               superpixels in scan order, so most label values shift
//	               between frames even where the segments barely move.
//	               On perfbench's streams chains (640×480, K 900, frames
//	               1–11 of a 3 px pan) 0.91–0.92 of the pixels change
//	               label, and a delta frame is 96.7 and 94.2 KB against
//	               SLBR's 73.1 and 71.1 KB (1.32×). Deltas pay only
//	               once labels are numbered stably across frames.
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
	n := len(labels)
	if base == nil {
		// Every pixel's base is Unassigned: skip those, and a run is a
		// stretch of one other label.
		for i := 0; i < n; {
			s := i
			for i < n && labels[i] == imgio.Unassigned {
				i++
			}
			v, j := int32(0), i
			if i < n {
				v, j = labels[i], i+1
				for j < n && labels[j] == v {
					j++
				}
			}
			if err := cw.record(i-s, j-i, v); err != nil {
				return err
			}
			i = j
		}
		return cw.flush()
	}
	prev := base.Labels[:n]
	for i := 0; i < n; {
		s := i
		for i < n && labels[i] == prev[i] {
			i++
		}
		v, j := int32(0), i
		if i < n {
			v, j = labels[i], i+1
			for j < n && labels[j] == v && prev[j] != v {
				j++
			}
		}
		if err := cw.record(i-s, j-i, v); err != nil {
			return err
		}
		i = j
	}
	return cw.flush()
}

// record appends one delta record: the skip, then, unless run is 0 (a
// skip that reaches the end), the run and its label.
func (cw *chunkWriter) record(skip, run int, v int32) error {
	if err := cw.room(25); err != nil {
		return err
	}
	cw.uvarint(uint64(skip))
	if run > 0 {
		cw.uvarint(uint64(run))
		cw.varint(int64(v))
	}
	return nil
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
		fill(labels[pos:pos+int(n)], v)
		pos += int(n)
	}
	return nil
}

// decodeDelta writes each pixel once: a skipped stretch is copied from
// the base (Unassigned for a nil base), a run is filled with its label.
// Whole records are parsed from the reader's buffered bytes; a record
// that runs past them, or that the parse refuses, is read again by
// readDeltaRecord, which refills the buffer and reports the errors.
func decodeDelta(br *bufio.Reader, labels []int32, base *imgio.LabelMap) error {
	var prev []int32
	if base != nil {
		prev = base.Labels[:len(labels)]
	}
	for pos := 0; pos < len(labels); {
		// Peeking at no more than is buffered reads nothing and cannot
		// fail; neither can discarding what was peeked.
		buf, _ := br.Peek(br.Buffered())
		off := 0
		for pos < len(labels) {
			skip, n1 := uvarint(buf[off:])
			if n1 <= 0 || skip > uint64(len(labels)-pos) {
				break
			}
			end := pos + int(skip)
			if end == len(labels) {
				keep(labels, prev, pos, end)
				pos, off = end, off+n1
				break
			}
			run, n2 := uvarint(buf[off+n1:])
			if n2 <= 0 || run < 1 || run > uint64(len(labels)-end) {
				break
			}
			zz, n3 := uvarint(buf[off+n1+n2:])
			v := int64(zz >> 1)
			if zz&1 != 0 {
				v = ^v
			}
			if n3 <= 0 || v < -1<<31 || v > 1<<31-1 {
				break
			}
			keep(labels, prev, pos, end)
			pos = end + int(run)
			fill(labels[end:pos], int32(v))
			off += n1 + n2 + n3
		}
		_, _ = br.Discard(off)
		if pos == len(labels) {
			break
		}
		var err error
		if pos, err = readDeltaRecord(br, labels, prev, pos); err != nil {
			return err
		}
	}
	return nil
}

// uvarint is binary.Uvarint with its one- and two-byte cases inline: a
// warm stream's skips and runs are mostly one byte, its labels two.
func uvarint(buf []byte) (uint64, int) {
	if len(buf) > 0 && buf[0] < 0x80 {
		return uint64(buf[0]), 1
	}
	if len(buf) > 1 && buf[1] < 0x80 {
		return uint64(buf[0]&0x7f) | uint64(buf[1])<<7, 2
	}
	return binary.Uvarint(buf)
}

// readDeltaRecord reads one delta record at pixel pos byte by byte and
// returns the pixel after it.
func readDeltaRecord(br *bufio.Reader, labels, prev []int32, pos int) (int, error) {
	skip, err := binary.ReadUvarint(br)
	if err != nil {
		return pos, fmt.Errorf("wire: reading skip: %w", err)
	}
	if skip > uint64(len(labels)-pos) {
		return pos, fmt.Errorf("wire: skip of %d at pixel %d overruns %d-pixel map",
			skip, pos, len(labels))
	}
	end := pos + int(skip)
	keep(labels, prev, pos, end)
	if end == len(labels) {
		return end, nil
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return end, fmt.Errorf("wire: reading run length: %w", err)
	}
	if n < 1 || n > uint64(len(labels)-end) {
		return end, fmt.Errorf("wire: run of %d at pixel %d overruns %d-pixel map",
			n, end, len(labels))
	}
	v, err := readLabel(br)
	if err != nil {
		return end, err
	}
	fill(labels[end:end+int(n)], v)
	return end + int(n), nil
}

// keep gives the skipped pixels pos to end−1 their base labels: prev's,
// or Unassigned for a nil base.
func keep(labels, prev []int32, pos, end int) {
	if prev == nil {
		fill(labels[pos:end], imgio.Unassigned)
		return
	}
	copy(labels[pos:end], prev[pos:end])
}

// fill sets every element of s to v.
func fill(s []int32, v int32) {
	for i := range s {
		s[i] = v
	}
}
