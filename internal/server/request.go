package server

import (
	"fmt"
	"io"
	"math"
	"mime"
	"mime/multipart"
	"net/url"
	"strconv"
	"strings"
	"time"

	"sslic/internal/imgio"
	"sslic/internal/sslic"
)

// The two request decoders — frame payload and query options — are the
// service's entire untrusted-input surface, so both are pure functions
// of their inputs (no http types beyond the reader) and both carry fuzz
// targets in fuzz_test.go.

// Output formats and encodings. The slbl family is the binary wire
// layer (internal/wire): raw, run-length and frame-delta label maps.
const (
	formatLabels    = "labels"
	formatOverlay   = "overlay"
	formatMean      = "mean"
	formatSLBL      = "slbl"
	formatSLBLRLE   = "slbl-rle"
	formatSLBLDelta = "slbl-delta"

	encodingPPM = "ppm"
	encodingPNG = "png"
)

// options is the parsed, validated form of a segment request's query
// string.
type options struct {
	K           int
	Ratio       float64
	Iters       int
	Compactness float64
	Datapath    sslic.DatapathKind // ?datapath=, read by sslic.ParseDatapath; float64 without it
	TileWorkers int                // -1: use the server's configured SegWorkers
	Stream      string
	Format      string
	Encoding    string
	Timeout     time.Duration
}

// maxTileWorkers bounds the per-request intra-frame parallelism: the
// knob selects a band count, so values past any plausible core count
// only buy goroutine churn a client could use as an amplifier.
const maxTileWorkers = 64

// maxStreamIDLen bounds client stream identifiers: they key warm-state
// maps, so they must stay cheap to hash and impossible to abuse as a
// memory amplifier.
const maxStreamIDLen = 64

// parseOptions validates the query string against the server's
// configured defaults and bounds. Unknown keys are ignored (standard
// HTTP leniency); known keys with bad values are errors.
func parseOptions(cfg Config, q url.Values) (options, error) {
	o := options{
		K:           cfg.DefaultK,
		Ratio:       cfg.DefaultRatio,
		Iters:       cfg.DefaultIters,
		Compactness: cfg.DefaultCompactness,
		TileWorkers: -1,
		Format:      formatLabels,
		Encoding:    encodingPPM,
		Timeout:     cfg.RequestTimeout,
	}
	var err error
	if o.K, err = intParam(q, "k", o.K, 1, 1<<20); err != nil {
		return o, err
	}
	if o.Iters, err = intParam(q, "iters", o.Iters, 1, 1000); err != nil {
		return o, err
	}
	if o.Ratio, err = floatParam(q, "ratio", o.Ratio, math.Nextafter(0, 1), 1); err != nil {
		return o, err
	}
	if o.Compactness, err = floatParam(q, "compactness", o.Compactness, math.Nextafter(0, 1), 1e6); err != nil {
		return o, err
	}
	if v := q.Get("datapath"); v != "" {
		if o.Datapath, err = sslic.ParseDatapath(v); err != nil {
			return o, err
		}
	}
	if o.TileWorkers, err = intParam(q, "tile_workers", o.TileWorkers, 0, maxTileWorkers); err != nil {
		return o, err
	}
	if v := q.Get("stream"); v != "" {
		if err := validateStreamID(v); err != nil {
			return o, err
		}
		o.Stream = v
	}
	if v := q.Get("format"); v != "" {
		switch v {
		case formatLabels, formatOverlay, formatMean,
			formatSLBL, formatSLBLRLE, formatSLBLDelta:
			o.Format = v
		default:
			return o, fmt.Errorf("server: unknown format %q (want labels, overlay, mean, slbl, slbl-rle or slbl-delta)", v)
		}
	}
	if v := q.Get("encoding"); v != "" {
		switch v {
		case encodingPPM, encodingPNG:
			o.Encoding = v
		default:
			return o, fmt.Errorf("server: unknown encoding %q (want ppm or png)", v)
		}
	}
	if v := q.Get("timeout_ms"); v != "" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil || ms < 1 {
			return o, fmt.Errorf("server: invalid timeout_ms %q", v)
		}
		// Clamp in millisecond units BEFORE converting to a Duration: a
		// huge ms value overflows the multiplication into a negative
		// Duration, which would sail under the cap and hand the request
		// an already-expired context (found by FuzzParseOptions).
		d := cfg.MaxTimeout
		if ms < int64(cfg.MaxTimeout/time.Millisecond) {
			d = time.Duration(ms) * time.Millisecond
		}
		o.Timeout = d
	}
	return o, nil
}

func intParam(q url.Values, key string, def, lo, hi int) (int, error) {
	v := q.Get(key)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return def, fmt.Errorf("server: invalid %s %q", key, v)
	}
	if n < lo || n > hi {
		return def, fmt.Errorf("server: %s = %d out of range [%d, %d]", key, n, lo, hi)
	}
	return n, nil
}

func floatParam(q url.Values, key string, def, lo, hi float64) (float64, error) {
	v := q.Get(key)
	if v == "" {
		return def, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
		return def, fmt.Errorf("server: invalid %s %q", key, v)
	}
	if f < lo || f > hi {
		return def, fmt.Errorf("server: %s = %g out of range [%g, %g]", key, f, lo, hi)
	}
	return f, nil
}

// validateStreamID accepts short identifiers over a fixed alphabet.
func validateStreamID(id string) error {
	if len(id) > maxStreamIDLen {
		return fmt.Errorf("server: stream id longer than %d bytes", maxStreamIDLen)
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-', c == ':':
		default:
			return fmt.Errorf("server: stream id contains %q (want [A-Za-z0-9._:-])", c)
		}
	}
	return nil
}

// decodeFrame reads one frame from a request body. A multipart/form-data
// content type selects the first part named "frame" (or carrying a file
// name); anything else is decoded directly, with the format sniffed from
// its magic bytes (PPM or PNG). The pixel budget is enforced inside the
// decoder — from the header, before pixel allocation — because a
// compressed format can claim a canvas thousands of times larger than
// its payload (a post-decode check would already have paid for it).
// alloc supplies the decode target (a pooled buffer on the zero-copy
// path); it only ever sees budget-validated dimensions.
func decodeFrame(body io.Reader, contentType string, maxPixels int, alloc imgio.ImageAlloc) (*imgio.Image, error) {
	mt, params, err := mime.ParseMediaType(contentType)
	if err == nil && strings.HasPrefix(mt, "multipart/") {
		boundary := params["boundary"]
		if boundary == "" {
			return nil, fmt.Errorf("server: multipart content type without boundary")
		}
		mr := multipart.NewReader(body, boundary)
		for {
			part, err := mr.NextPart()
			if err == io.EOF {
				return nil, fmt.Errorf("server: multipart body has no \"frame\" part")
			}
			if err != nil {
				return nil, fmt.Errorf("server: reading multipart body: %w", err)
			}
			if part.FormName() == "frame" || part.FileName() != "" {
				return imgio.DecodeImageLimitAlloc(part, maxPixels, alloc)
			}
		}
	}
	return imgio.DecodeImageLimitAlloc(body, maxPixels, alloc)
}
