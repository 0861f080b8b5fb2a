package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"sslic/internal/imgio"
	"sslic/internal/sslic"
	"sslic/internal/telemetry"
	"sslic/internal/telemetry/testutil"
	"sslic/internal/tenant"
)

// fuzzConfig is the defaults-applied config the fuzz targets parse
// against, mirroring what New would hand to the handlers.
var fuzzConfig = Config{}.withDefaults()

// FuzzDecodeFrame drives the request-body decoder — the service's main
// untrusted-input surface — with arbitrary bytes and content types. It
// must never panic, and any accepted frame must be internally
// consistent. Seeds carry the imgio fuzz corpus shapes (valid and
// hostile PPM headers) plus PNG and multipart framings.
func FuzzDecodeFrame(f *testing.F) {
	// The imgio PPM corpus: valid minimal frames, truncations, hostile
	// dimensions, wrong magics.
	ppmSeeds := [][]byte{
		[]byte("P6\n2 2\n255\n0123456789AB"),
		[]byte("P3\n1 1\n255\n1 2 3"),
		[]byte("P6\n# comment\n1 1\n255\nabc"),
		[]byte("P6\n0 0\n255\n"),
		[]byte("P5\n2 2\n255\nabcd"),
		[]byte(""),
		[]byte("P6"),
		[]byte("P6\n99999999 99999999\n255\n"),
		[]byte("P3\n2 1\n255\n300 -4 12 1 2 3"),
		[]byte("P6\n2 2\n15\n0123456789AB"),
	}
	for _, s := range ppmSeeds {
		f.Add(s, "")
		f.Add(s, "image/x-portable-pixmap")
	}
	// A real PNG frame and truncations of it.
	var png bytes.Buffer
	im := imgio.NewImage(3, 2)
	for i := range im.C0 {
		im.C0[i] = uint8(i * 40)
	}
	if err := imgio.EncodePNG(&png, im); err != nil {
		f.Fatal(err)
	}
	f.Add(png.Bytes(), "image/png")
	f.Add(png.Bytes()[:8], "image/png")
	f.Add(png.Bytes()[:20], "")
	// Multipart framings: well-formed, missing frame part, broken
	// boundary, nested content type.
	mp := "--b\r\nContent-Disposition: form-data; name=\"frame\"; filename=\"f.ppm\"\r\n\r\n" +
		"P6\n1 1\n255\nabc\r\n--b--\r\n"
	f.Add([]byte(mp), "multipart/form-data; boundary=b")
	f.Add([]byte("--b\r\nContent-Disposition: form-data; name=\"other\"\r\n\r\nx\r\n--b--\r\n"),
		"multipart/form-data; boundary=b")
	f.Add([]byte(mp), "multipart/form-data")
	f.Add([]byte(mp), "multipart/form-data; boundary=\x00")
	f.Add([]byte("--b\r\n\r\n"), "multipart/form-data; boundary=b")

	f.Fuzz(func(t *testing.T, data []byte, contentType string) {
		if len(data) > 1<<16 {
			return
		}
		// A small budget keeps per-exec allocation cheap; the first fuzz
		// run of this target (with the unbounded decoder) stalled on
		// hostile PNG headers claiming gigapixel canvases, which is why
		// the budget is enforced from the header inside decodeFrame.
		const budget = 1 << 18
		im, err := decodeFrame(bytes.NewReader(data), contentType, budget, nil)
		if err != nil {
			return
		}
		if im.W <= 0 || im.H <= 0 {
			t.Fatalf("decoder accepted dimensions %dx%d", im.W, im.H)
		}
		if im.Pixels() > budget {
			t.Fatalf("decoder accepted %d pixels over the %d budget", im.Pixels(), budget)
		}
		if len(im.C0) != im.W*im.H || len(im.C1) != im.W*im.H || len(im.C2) != im.W*im.H {
			t.Fatalf("plane sizes %d/%d/%d for %dx%d", len(im.C0), len(im.C1), len(im.C2), im.W, im.H)
		}
	})
}

// FuzzParseOptions drives the query-string decoder with arbitrary raw
// queries. It must never panic, and anything it accepts must be inside
// the documented bounds (otherwise a crafted query could smuggle
// un-validated parameters into the segmentation core).
func FuzzParseOptions(f *testing.F) {
	for _, s := range []string{
		"",
		"k=900&ratio=0.5&iters=10",
		"k=0", "k=-1", "k=99999999999999999999", "k=abc", "k=1&k=2",
		"ratio=NaN", "ratio=Inf", "ratio=1e309", "ratio=-0.5", "ratio=0",
		"compactness=0", "compactness=1e300",
		"iters=0", "iters=1001",
		"stream=camA", "stream=a%20b", "stream=" + strings.Repeat("x", 65),
		"stream=%ff", "stream=%00",
		"format=labels", "format=jpeg", "format=",
		"format=slbl", "format=slbl-rle", "format=slbl-delta&stream=cam0",
		"encoding=png", "encoding=bmp",
		"timeout_ms=0", "timeout_ms=-5", "timeout_ms=99999999",
		"timeout_ms=9223372036854775808",
		"unknown=ignored&k=4",
		"k=%32%34",
		";;;=&&&",
		"datapath=coded8", "datapath=coded11", "datapath=Fixed",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		if len(raw) > 1<<12 {
			return
		}
		q, err := url.ParseQuery(raw)
		if err != nil {
			return
		}
		o, err := parseOptions(fuzzConfig, q)
		if err != nil {
			return
		}
		if o.K < 1 || o.K > 1<<20 {
			t.Fatalf("accepted k=%d", o.K)
		}
		if !(o.Ratio > 0 && o.Ratio <= 1) {
			t.Fatalf("accepted ratio=%g", o.Ratio)
		}
		if o.Iters < 1 || o.Iters > 1000 {
			t.Fatalf("accepted iters=%d", o.Iters)
		}
		if !(o.Compactness > 0 && o.Compactness <= 1e6) {
			t.Fatalf("accepted compactness=%g", o.Compactness)
		}
		if len(o.Stream) > maxStreamIDLen {
			t.Fatalf("accepted %d-byte stream id", len(o.Stream))
		}
		if err := validateStreamID(o.Stream); err != nil {
			t.Fatalf("accepted invalid stream id %q: %v", o.Stream, err)
		}
		switch o.Format {
		case formatLabels, formatOverlay, formatMean,
			formatSLBL, formatSLBLRLE, formatSLBLDelta:
		default:
			t.Fatalf("accepted format %q", o.Format)
		}
		switch o.Encoding {
		case encodingPPM, encodingPNG:
		default:
			t.Fatalf("accepted encoding %q", o.Encoding)
		}
		if o.Timeout < time.Millisecond || o.Timeout > fuzzConfig.MaxTimeout {
			t.Fatalf("accepted timeout %v", o.Timeout)
		}
		// A one-pixel PPA run at ratio 1 fails Validate on its datapath
		// only.
		p := sslic.DefaultParams(1, 1)
		p.Datapath = o.Datapath
		if err := p.Validate(1, 1); err != nil {
			t.Fatalf("accepted datapath %v: %v", o.Datapath, err)
		}
	})
}

// FuzzSegmentHandler drives the whole /v1/segment handler with random
// queries, bodies and content types on a small-budget server, sending
// each input twice so the second request meets the stream state (and,
// with tenancy on, the rate limit) the first left behind. Every
// response must name its degradation level, every refusal must carry
// the refusal table's status for the one reason whose rejected_total
// series moved, and no goroutine may outlive Close.
func FuzzSegmentHandler(f *testing.F) {
	var frame, big bytes.Buffer
	if err := imgio.EncodePPM(&frame, testFrame(24, 16)); err != nil {
		f.Fatal(err)
	}
	if err := imgio.EncodePPM(&big, testFrame(80, 60)); err != nil {
		f.Fatal(err)
	}
	mp := "--b\r\nContent-Disposition: form-data; name=\"frame\"; filename=\"f.ppm\"\r\n\r\n" +
		frame.String() + "\r\n--b--\r\n"
	for _, c := range []struct {
		query       string
		body        []byte
		contentType string
		tenancy     bool
	}{
		{"k=8&iters=2", frame.Bytes(), "", false},
		{"k=8&format=slbl-delta&stream=cam0&datapath=fixed", frame.Bytes(), "image/x-portable-pixmap", false},
		{"k=8&format=overlay&encoding=png&tenant=acme", frame.Bytes(), "", true},
		{"k=8&format=mean&stream=cam0", frame.Bytes(), "", true},
		{"k=8&format=slbl-rle", []byte(mp), "multipart/form-data; boundary=b", false},
		{"k=abc", frame.Bytes(), "", false},
		{"k=100000", frame.Bytes(), "", true},
		{"k=8&iters=1000&timeout_ms=1", frame.Bytes(), "", false},
		{"k=8&ratio=1e-10&iters=100", frame.Bytes(), "", false},
		{"", []byte("not an image"), "", false},
		{"k=8", big.Bytes(), "", false},
		{"%zz;;&k=8", frame.Bytes(), "multipart/form-data", false},
	} {
		f.Add(c.query, c.body, c.contentType, c.tenancy)
	}
	f.Fuzz(func(t *testing.T, query string, body []byte, contentType string, tenancy bool) {
		if len(query) > 1<<10 || len(body) > 1<<15 {
			return
		}
		testutil.VerifyNoLeaks(t)
		cfg := Config{
			Workers: 1, QueueDepth: 1, DegradeInterval: -1,
			MaxPixels: 64 * 64, MaxBodyBytes: 1 << 14,
			RequestTimeout: 100 * time.Millisecond, MaxTimeout: 100 * time.Millisecond,
		}
		if tenancy {
			cfg.Tenants = []tenant.Config{{Key: "acme", Rate: 1, Burst: 1}}
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		rejected := func(reason string) float64 {
			return s.Registry().Counter("sslic_server_rejected_total", "Requests refused, by reason.",
				telemetry.Label{Name: "reason", Value: reason}).Value()
		}
		for i := 0; i < 2; i++ {
			before := map[string]float64{}
			for reason := range refusals {
				before[reason] = rejected(reason)
			}
			req := httptest.NewRequest(http.MethodPost, "/v1/segment", bytes.NewReader(body))
			req.URL.RawQuery = query
			req.Header.Set("Content-Type", contentType)
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, req)

			if rec.Header().Get("X-Degradation-Level") == "" {
				t.Fatalf("request %d: status %d without X-Degradation-Level", i, rec.Code)
			}
			moved := ""
			for reason := range refusals {
				switch d := rejected(reason) - before[reason]; {
				case d == 0:
				case d == 1 && moved == "":
					moved = reason
				default:
					t.Fatalf("request %d: rejected_total moved by %g for %q (and %q)", i, d, reason, moved)
				}
			}
			switch {
			case rec.Code == http.StatusOK && moved != "":
				t.Fatalf("request %d: 200 counted as refused (%s)", i, moved)
			case rec.Code != http.StatusOK && moved == "":
				t.Fatalf("request %d: status %d counted under no refusal reason (%s)", i, rec.Code, rec.Body)
			case rec.Code != http.StatusOK && refusals[moved].code != rec.Code:
				t.Fatalf("request %d: status %d for reason %q, table says %d", i, rec.Code, moved, refusals[moved].code)
			}
		}
	})
}
