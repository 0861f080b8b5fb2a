package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"slices"
	"strconv"
	"time"

	"sslic/internal/dataset"
	"sslic/internal/imgio"
	"sslic/internal/server"
	"sslic/internal/sslic"
	"sslic/internal/wire"
)

// Both HTTP workloads run the server with two segmentation workers, one
// per camera of streams; a fixed count keeps stream-to-shard placement
// the same on every host.
const serverWorkers = 2

// streamIDs are the two camera streams of the streams workload. Their
// FNV-1a hashes differ in parity, so the pool's sticky sharding puts them
// on different workers.
var streamIDs = [2]string{"cam0", "cam1"}

// httpInput is what one client sends: pre-encoded frames, the order it
// cycles through them, and how to judge the answers.
type httpInput struct {
	w, h   int
	query  string
	bodies [][]byte
	order  []int
	// ref holds the expected labels per frame when the workload has an
	// exact oracle (stills); gt the ground truth per frame.
	ref []*imgio.LabelMap
	gt  func(frame int) (*imgio.LabelMap, error)
}

// httpEnv is one system under test: a server behind a loopback listener.
type httpEnv struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	url    string
}

func startServer(cfg server.Config) (*httpEnv, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	e := &httpEnv{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String() + "/v1/segment",
	}
	go func() { e.served <- e.hs.Serve(ln) }()
	return e, nil
}

// close stops the listener, waits for in-flight requests and the serve
// loop, then drains the server's workers.
func (e *httpEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = e.hs.Shutdown(ctx) // a timeout here still closes the listener
	<-e.served
	e.srv.Close()
}

// reqRec is what one response reported about the layers it crossed, as
// measured, with the reference-speed factor measured before it was sent.
type reqRec struct {
	latMs, decodeMs, queueMs, segmentMs float64
	bytes                               int
	warm                                bool
	estPJ                               float64
	f                                   float64
	start                               time.Time
	span                                time.Duration // send to end of checks
}

// client is one camera or still-image sender on its own keep-alive
// connection.
type client struct {
	in    *httpInput
	tr    *http.Transport
	hc    *http.Client
	url   string
	speed *speed
	pos   int
	prev  *imgio.LabelMap // last decoded labels: the delta base
	body  bytes.Buffer

	recs               []reqRec
	t                  tally
	degraded, rejected int
	served             []int // successful responses per frame
	samples            sampler
}

func newClient(in *httpInput, url string, sp *speed) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{
		in: in, tr: tr, hc: &http.Client{Transport: tr}, url: url + "?" + in.query, speed: sp,
		served:  make([]int, len(in.bodies)),
		samples: sampler{every: 8, max: 24},
	}
}

// step sends the next frame, waits for the whole answer and checks it.
// It returns the failure reason, "" for a correct answer. record says
// whether the step belongs to the timed window.
func (c *client) step(record bool) string {
	frame := c.in.order[c.pos%len(c.in.order)]
	c.pos++
	f := c.speed.factor()
	t0 := time.Now()
	resp, err := c.hc.Post(c.url, "image/x-portable-pixmap", bytes.NewReader(c.in.bodies[frame]))
	if err != nil {
		return c.finish(record, "transport", reqRec{latMs: float64(time.Since(t0)) / 1e6, f: f, start: t0}, frame, nil)
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	rec := reqRec{latMs: float64(time.Since(t0)) / 1e6, bytes: c.body.Len(), f: f, start: t0}
	if err != nil {
		return c.finish(record, "read_body", rec, frame, nil)
	}
	if record && resp.StatusCode != http.StatusOK {
		c.rejected++
	}
	if resp.StatusCode != http.StatusOK {
		return c.finish(record, "status_"+strconv.Itoa(resp.StatusCode), rec, frame, nil)
	}
	h := resp.Header
	rec.decodeMs = headerFloat(h, "X-Cost-Decode-Ns") / 1e6
	rec.queueMs = headerFloat(h, "X-Cost-Queue-Ns") / 1e6
	rec.segmentMs = headerFloat(h, "X-Sslic-Seconds") * 1e3
	rec.estPJ = headerFloat(h, "X-Cost-Est-Pj")
	rec.warm = h.Get("X-Sslic-Warm") == "true"

	// The delta chain is kept even for answers that fail a later check,
	// so one bad frame does not fail every frame after it.
	var base *imgio.LabelMap
	if h.Get("X-Wire-Base") == "prev" {
		if c.prev == nil {
			return c.finish(record, "delta_base_missing", rec, frame, nil)
		}
		base = c.prev
	}
	lm, err := wire.Decode(bytes.NewReader(c.body.Bytes()), c.in.w*c.in.h, base)
	c.prev = lm
	switch {
	case err != nil:
		return c.finish(record, "wire_decode", rec, frame, nil)
	case lm.W != c.in.w || lm.H != c.in.h:
		return c.finish(record, "dims", rec, frame, nil)
	case !labelRangeOK(lm):
		return c.finish(record, "label_range", rec, frame, nil)
	case c.in.ref != nil && !slices.Equal(lm.Labels, c.in.ref[frame].Labels):
		return c.finish(record, "labels_differ_from_in_process", rec, frame, nil)
	}
	// Every workload is sized to keep the degrade ladder at level 0, so
	// a degraded answer is a failure even when it decodes.
	if h.Get("X-Degradation-Level") != "0" {
		if record {
			c.degraded++
		}
		return c.finish(record, "degraded", rec, frame, nil)
	}
	return c.finish(record, "", rec, frame, lm)
}

func (c *client) finish(record bool, reason string, rec reqRec, frame int, lm *imgio.LabelMap) string {
	if !record {
		return reason
	}
	rec.span = time.Since(rec.start)
	if reason == "" && c.in.ref == nil {
		if err := c.samples.offer(frame, lm); err != nil {
			reason = "sample_encode"
		}
	}
	c.t.add(reason)
	c.recs = append(c.recs, rec)
	if reason == "" {
		c.served[frame]++
	}
	return reason
}

func (c *client) close() { c.tr.CloseIdleConnections() }

func headerFloat(h http.Header, name string) float64 {
	v, err := strconv.ParseFloat(h.Get(name), 64)
	if err != nil {
		return 0 // the server omits zero-valued cost headers
	}
	return v
}

// runHTTP sets the server up five times — setup_s is their median — and
// keeps the last. It warms that server, then drives the clients, one per
// input, in one closed loop for o.seconds.
func runHTTP(inputs []*httpInput, o opts, traced bool) (*outcome, error) {
	sp, err := newSpeed()
	if err != nil {
		return nil, err
	}
	out := &outcome{heapBase: settleHeap()}
	cfg := server.Config{Workers: serverWorkers}
	if traced {
		out.phases = &phaseAcc{}
		cfg.Segment = out.phases.segment
	}
	var env *httpEnv
	var clients []*client
	closeAll := func() {
		for _, c := range clients {
			c.close()
		}
		env.close()
	}
	setups := 5
	if o.setupOnce {
		setups = 1
	}
	for i := 0; i < setups; i++ {
		if env != nil {
			closeAll()
		}
		f := sp.factor()
		kernel := sp.kernelCPU() // the first frame runs the kernel once more
		t0 := time.Now()
		if env, err = startServer(cfg); err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		clients = clients[:0]
		for _, in := range inputs {
			clients = append(clients, newClient(in, env.url, sp))
		}
		if reason := clients[0].step(false); reason != "" {
			closeAll()
			return nil, fmt.Errorf("set-up: first frame failed: %s", reason)
		}
		d := time.Since(t0) - (sp.kernelCPU() - kernel)
		out.setupS = append(out.setupS, d.Seconds()*f)
	}
	defer closeAll()

	// Warm-up: the buffer pool, the stream states and the connections
	// fill before timing starts.
	drive(clients, warmup(o.seconds), false)
	if out.phases != nil {
		out.phases.reset()
	}
	timer := openWindow()
	kernel := sp.kernelCPU()
	drive(clients, o.seconds, true)
	out.refCPU = sp.kernelCPU() - kernel
	out.win = timer.close()

	var recs []reqRec
	for _, c := range clients {
		out.tally.merge(c.t)
		recs = append(recs, c.recs...)
	}
	var pj float64
	var warm, bytesSum int
	var decode, queue, segment, other []float64
	for _, r := range recs {
		out.frame(r.latMs, r.span, r.f)
		pj += r.estPJ
		bytesSum += r.bytes
		if r.warm {
			warm++
		}
		decode = append(decode, r.decodeMs)
		queue = append(queue, r.queueMs)
		segment = append(segment, r.segmentMs)
		other = append(other, r.latMs-r.decodeMs-r.queueMs-r.segmentMs)
	}
	out.completed = out.attempted - out.failed
	if out.completed > 0 {
		out.energyUJ = pj / 1e6 / float64(out.completed)
	}
	for _, c := range clients {
		if err := c.quality(&out.q); err != nil {
			return nil, err
		}
	}
	if !traced {
		return out, nil
	}
	var degraded, rejected int
	for _, c := range clients {
		degraded += c.degraded
		rejected += c.rejected
	}
	share := func(n int) float64 { return out.perFrame(float64(n)) }
	warmShare := 0.0
	if out.completed > 0 {
		warmShare = float64(warm) / float64(out.completed)
	}
	out.layers = []named{
		{"server.decode_ms", metric{mean(decode), "ms"}},
		{"server.queue_ms", metric{mean(queue), "ms"}},
		{"server.segment_ms", metric{mean(segment), "ms"}},
		{"server.other_ms", metric{mean(other), "ms"}},
		{"server.response_bytes", metric{out.perFrame(float64(bytesSum)), "bytes"}},
		{"server.degraded_share", metric{share(degraded), "ratio"}},
		{"server.rejected_share", metric{share(rejected), "ratio"}},
		{"pool.warm_share", metric{warmShare, "ratio"}},
	}
	out.layers = append(out.layers, out.phases.layers()...)
	out.layers = append(out.layers, out.runtimeLayers()...)
	out.checkPhases(mean(segment))
	return out, nil
}

// quality scores what the client was served: the exact per-frame oracle
// when there is one (weighted by how often each frame was served), the
// kept samples otherwise.
func (c *client) quality(q *quality) error {
	if c.in.ref == nil {
		return q.addSamples(c.samples.kept, c.in.gt)
	}
	for frame, n := range c.served {
		if n == 0 {
			continue
		}
		gt, err := c.in.gt(frame)
		if err != nil {
			return err
		}
		if err := q.add(c.in.ref[frame], gt, n); err != nil {
			return err
		}
	}
	return nil
}

// drive runs the clients in one closed loop, taking turns, until d has
// passed. One frame is in flight at a time, so the reference kernel that
// each step runs before sending measures the speed of the CPU the frame
// will run on, with nothing else running.
func drive(clients []*client, d time.Duration, record bool) {
	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		clients[i%len(clients)].step(record)
	}
}

// warmup is the untimed lead-in before a window of length d.
func warmup(d time.Duration) time.Duration {
	w := d / 10
	if w > 2*time.Second {
		w = 2 * time.Second
	}
	return w
}

// runStills: one client POSTs distinct BSDS-sized scenes (voronoi, blobs
// and stripes in turn) with the server defaults — K=900, ratio 0.5, 10
// iterations, float64, cold, run-length labels. Each scene's expected
// labels come from an in-process sslic.SegmentContext call.
func runStills(o opts, traced bool) (*outcome, error) {
	s, scenes := shape{481, 321, 900, 40}, 12
	if o.smoke {
		s, scenes = shape{96, 64, 64, 8}, 6
	}
	kinds := []dataset.Kind{dataset.Voronoi, dataset.Blobs, dataset.Stripes}
	in := &httpInput{w: s.w, h: s.h, query: "format=slbl-rle&k=" + strconv.Itoa(s.k)}
	var gts []*imgio.LabelMap
	params := sslic.DefaultParams(s.k, 0.5)
	for i := 0; i < scenes; i++ {
		sc, err := dataset.Generate(sceneConfig(s, kinds[i%len(kinds)]), o.seed*1000+int64(i))
		if err != nil {
			return nil, fmt.Errorf("scene %d: %w", i, err)
		}
		body, err := encodePPM(sc.Image)
		if err != nil {
			return nil, err
		}
		ref, err := sslic.SegmentContext(context.Background(), sc.Image, params)
		if err != nil {
			return nil, fmt.Errorf("reference for scene %d: %w", i, err)
		}
		in.bodies = append(in.bodies, body)
		in.order = append(in.order, i)
		in.ref = append(in.ref, ref.Labels)
		gts = append(gts, sc.GT)
	}
	in.gt = func(i int) (*imgio.LabelMap, error) { return gts[i], nil }
	return runHTTP([]*httpInput{in}, o, traced)
}

// runStreams: two cameras taking turns, each panning its own scene at
// 640×480 on its own connection, as warm-started fixed-datapath streams
// answered in the frame-delta wire format.
func runStreams(o opts, traced bool) (*outcome, error) {
	s, frames := shape{640, 480, 900, 80}, 12
	if o.smoke {
		s, frames = shape{96, 64, 64, 8}, 4
	}
	kinds := [2]dataset.Kind{dataset.Voronoi, dataset.Blobs}
	var inputs []*httpInput
	for i, id := range streamIDs {
		ps, err := newPanStream(s, kinds[i], o.seed*1000+int64(i), frames)
		if err != nil {
			return nil, fmt.Errorf("stream %s: %w", id, err)
		}
		in := &httpInput{
			w: s.w, h: s.h, order: ps.order, gt: ps.groundTruth,
			query: "stream=" + id + "&datapath=fixed&format=slbl-delta&k=" + strconv.Itoa(s.k),
		}
		for _, im := range ps.frames {
			body, err := encodePPM(im)
			if err != nil {
				return nil, err
			}
			in.bodies = append(in.bodies, body)
		}
		inputs = append(inputs, in)
	}
	return runHTTP(inputs, o, traced)
}
