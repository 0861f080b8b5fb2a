package server

import (
	"bytes"
	"io"
	"net/http"
	"net/url"
	"testing"

	"sslic/internal/degrade"
	"sslic/internal/sslic"
)

// TestParseOptionsDatapath covers two request knobs: the datapath
// selector, float64 unless the request names another, and the
// per-request tile-worker override.
func TestParseOptionsDatapath(t *testing.T) {
	cfg := Config{}
	cfg = cfg.withDefaults()
	parse := func(raw string) (options, error) {
		q, err := url.ParseQuery(raw)
		if err != nil {
			t.Fatal(err)
		}
		return parseOptions(cfg, q)
	}
	o, err := parse("")
	if err != nil {
		t.Fatal(err)
	}
	if o.Datapath != sslic.Float64 || o.TileWorkers != -1 {
		t.Fatalf("defaults: datapath %v workers %d", o.Datapath, o.TileWorkers)
	}
	o, err = parse("datapath=fixed&tile_workers=4")
	if err != nil {
		t.Fatal(err)
	}
	if o.Datapath != sslic.Fixed || o.TileWorkers != 4 {
		t.Fatalf("parsed: datapath %v workers %d", o.Datapath, o.TileWorkers)
	}
	if o, err = parse("datapath=coded8"); err != nil || o.Datapath != sslic.Coded(8) {
		t.Fatalf("datapath=coded8: %v, %v", o.Datapath, err)
	}
	for _, v := range []string{"quantum", "coded11", "Fixed"} {
		if _, err = parse("datapath=" + v); err == nil {
			t.Fatalf("datapath=%s accepted", v)
		}
	}
	if _, err = parse("tile_workers=-3"); err == nil {
		t.Fatal("negative tile_workers accepted")
	}
	if _, err = parse("tile_workers=100000"); err == nil {
		t.Fatal("unbounded tile_workers accepted")
	}
}

// TestDegradePreservesDatapath pins the degrade-ladder interaction: the
// ladder trades iterations, subsampling and K for latency, but it must
// never silently switch arithmetic or band count — both knobs pass
// through every level unchanged.
func TestDegradePreservesDatapath(t *testing.T) {
	p := sslic.DefaultParams(900, 0.5)
	p.Datapath = sslic.Fixed
	p.TileWorkers = 4
	for l := degrade.Full; l <= degrade.MaxLevel; l++ {
		got := degrade.Apply(p, l)
		if got.Datapath != sslic.Fixed {
			t.Errorf("level %v: datapath degraded to %v", l, got.Datapath)
		}
		if got.TileWorkers != 4 {
			t.Errorf("level %v: tile workers changed to %d", l, got.TileWorkers)
		}
	}
}

// TestSegmentFixedDatapathEndToEnd drives the whole request path with
// ?datapath=fixed and checks the label payload is byte-identical across
// tile-worker counts — the server-level face of the determinism
// contract the sslic golden tests pin.
func TestSegmentFixedDatapathEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	frame := ppmBody(t, testFrame(64, 48))
	get := func(query string) []byte {
		resp, err := http.Post(ts.URL+"/v1/segment?k=24&iters=4&"+query, "",
			bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", query, resp.StatusCode, body)
		}
		return body
	}
	w1 := get("datapath=fixed&tile_workers=1")
	w3 := get("datapath=fixed&tile_workers=3")
	if !bytes.Equal(w1, w3) {
		t.Fatal("fixed-datapath labels differ across tile_workers")
	}
	flt := get("datapath=float64")
	if len(flt) != len(w1) {
		t.Fatalf("payload sizes differ between datapaths: %d vs %d", len(flt), len(w1))
	}
	if resp, err := http.Post(ts.URL+"/v1/segment?datapath=bogus", "",
		bytes.NewReader(frame)); err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bogus datapath: status %d, want 400", resp.StatusCode)
		}
	} else {
		t.Fatal(err)
	}
}
