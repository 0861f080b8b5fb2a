package server

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"sslic/internal/dataset"
	"sslic/internal/imgio"
	"sslic/internal/quality"
	"sslic/internal/slic"
	"sslic/internal/video"
	"sslic/internal/wire"
)

// servedProxies are the quality proxies of one label map at k clusters,
// counted pixel by pixel: labels 0 to k−1 count their pixels, and a
// pixel with a 4-neighbour of another label is a boundary pixel. The
// size CV sums the counts in label order, as the served scan does, so
// it compares exactly.
type servedProxies struct {
	empty, boundary, superpixels int
	cv                           float64
}

func countProxies(lm *imgio.LabelMap, k int) servedProxies {
	counts := make([]int, k)
	var p servedProxies
	w, h, lb := lm.W, lm.H, lm.Labels
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := y*w + x
			v := lb[i]
			if v >= 0 && int(v) < k {
				counts[v]++
			}
			p.superpixels = max(p.superpixels, int(v)+1)
			if (x > 0 && lb[i-1] != v) || (x < w-1 && lb[i+1] != v) ||
				(y > 0 && lb[i-w] != v) || (y < h-1 && lb[i+w] != v) {
				p.boundary++
			}
		}
	}
	var sum, sum2 float64
	for _, c := range counts {
		if c == 0 {
			p.empty++
		}
		f := float64(c)
		sum += f
		sum2 += f * f
	}
	if n := float64(k); n > 0 && sum > 0 {
		mean := sum / n
		p.cv = math.Sqrt(max(sum2/n-mean*mean, 0)) / mean
	}
	return p
}

// TestServedQualityProxiesMatchLabels: a served frame's quality proxies
// — the X-Quality-Empty-Clusters and X-Quality-Boundary-Density headers
// and its stream's /debug/streams clusters, empty_clusters,
// cluster_size_cv and boundary_density — are a function of the labels
// the response carries and the effective K alone. One frame ends with
// more superpixels than the effective K (those past the K-th stay out
// of the cluster proxies), the other with fewer (empty clusters), each
// on both datapaths.
func TestServedQualityProxiesMatchLabels(t *testing.T) {
	cfg := dataset.DefaultConfig()
	cfg.W, cfg.H = 640, 480
	vs, err := video.NewStream(cfg, 7000, video.Pan, 3)
	if err != nil {
		t.Fatal(err)
	}
	scene, _, err := vs.Frame(0)
	if err != nil {
		t.Fatal(err)
	}
	noise := imgio.NewImage(64, 48)
	rng := rand.New(rand.NewSource(1))
	for i := range noise.C0 {
		noise.C0[i] = uint8(rng.Intn(256))
		noise.C1[i] = uint8(rng.Intn(256))
		noise.C2[i] = uint8(rng.Intn(256))
	}

	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	cases := []struct {
		name  string
		im    *imgio.Image
		k     int
		query string
		// over: the frame ends with more superpixels than the effective
		// K; otherwise with fewer.
		over bool
	}{
		{"pan", scene, 900, "k=900", true},
		{"noise", noise, 150, "k=150&iters=4", false},
	}
	for _, tc := range cases {
		for _, dp := range []string{"float64", "fixed"} {
			t.Run(tc.name+"/"+dp, func(t *testing.T) {
				stream := tc.name + "-" + dp
				resp, body := postFrame(t, ts,
					tc.query+"&datapath="+dp+"&format=slbl&stream="+stream, ppmBody(t, tc.im))
				w, h := tc.im.W, tc.im.H
				labels, err := wire.Decode(bytes.NewReader(body), w*h, nil)
				if err != nil {
					t.Fatal(err)
				}
				nx, ny := slic.CenterGridDims(w, h, tc.k)
				k := nx * ny
				want := countProxies(labels, k)
				t.Logf("%d superpixels, effective K %d, %d empty, %d boundary pixels, CV %g",
					want.superpixels, k, want.empty, want.boundary, want.cv)
				if tc.over && want.superpixels <= k || !tc.over && want.empty == 0 {
					t.Fatalf("%d superpixels against an effective K of %d: the case no longer covers its end of the definition",
						want.superpixels, k)
				}
				density := float64(want.boundary) / float64(w*h)
				if got := resp.Header.Get("X-Quality-Empty-Clusters"); got != strconv.Itoa(want.empty) {
					t.Errorf("X-Quality-Empty-Clusters = %q, want %d", got, want.empty)
				}
				if got, exp := resp.Header.Get("X-Quality-Boundary-Density"), strconv.FormatFloat(density, 'f', 6, 64); got != exp {
					t.Errorf("X-Quality-Boundary-Density = %q, want %q", got, exp)
				}

				var row *quality.StreamStatus
				for _, r := range getStreams(t, s).Streams {
					if r.Stream == stream {
						row = &r
					}
				}
				if row == nil {
					t.Fatalf("no /debug/streams row for stream %q", stream)
				}
				if q := row.Quality; q.Clusters != k || q.EmptyClusters != want.empty ||
					q.ClusterSizeCV != want.cv || q.BoundaryDensity != density {
					t.Errorf("/debug/streams clusters %d, empty_clusters %d, cluster_size_cv %v, boundary_density %v; want %d, %d, %v, %v",
						q.Clusters, q.EmptyClusters, q.ClusterSizeCV, q.BoundaryDensity, k, want.empty, want.cv, density)
				}
			})
		}
	}
}
