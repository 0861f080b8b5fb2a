package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sslic/internal/imgio"
	"sslic/internal/sslic"
	"sslic/internal/telemetry/testutil"
)

func poolTestImage(w, h int) *imgio.Image {
	im := imgio.NewImage(w, h)
	for i := range im.C0 {
		im.C0[i] = uint8(i * 5)
		im.C1[i] = uint8(i * 11)
		im.C2[i] = uint8(i)
	}
	return im
}

// TestPoolMatchesDirectSegment: a cold Submit must return byte-identical
// labels to calling sslic.Segment directly with the same params.
func TestPoolMatchesDirectSegment(t *testing.T) {
	im := poolTestImage(48, 32)
	params := sslic.DefaultParams(12, 0.5)

	pool := NewPool(PoolConfig{Workers: 2, QueueDepth: 2})
	defer pool.Close()

	res, err := pool.Submit(context.Background(), Job{Image: im, Params: params})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sslic.Segment(im, params)
	if err != nil {
		t.Fatal(err)
	}
	if res.Warm {
		t.Fatal("first job of a stream reported warm")
	}
	for i := range want.Labels.Labels {
		if res.Result.Labels.Labels[i] != want.Labels.Labels[i] {
			t.Fatalf("label %d differs from direct Segment", i)
		}
	}
}

// TestPoolWarmSticky: the second frame of a stream must warm-start from
// the first frame's centers and reproduce a manual warm-started run.
func TestPoolWarmSticky(t *testing.T) {
	im1 := poolTestImage(48, 32)
	im2 := poolTestImage(48, 32)
	for i := range im2.C0 { // shift the scene a little
		im2.C0[i] += 7
	}
	params := sslic.DefaultParams(12, 0.5)
	const warmIters = 2

	pool := NewPool(PoolConfig{Workers: 3, QueueDepth: 2, WarmIters: warmIters})
	defer pool.Close()

	r1, err := pool.Submit(context.Background(), Job{Image: im1, Params: params, StreamID: "cam0"})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := pool.Submit(context.Background(), Job{Image: im2, Params: params, StreamID: "cam0"})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Warm || !r2.Warm {
		t.Fatalf("warm flags = %v, %v; want false, true", r1.Warm, r2.Warm)
	}

	// Reproduce by hand: frame 2 seeded with frame 1's centers.
	cold, err := sslic.Segment(im1, params)
	if err != nil {
		t.Fatal(err)
	}
	wp := params
	wp.InitialCenters = cold.Centers
	wp.FullIters = warmIters
	want, err := sslic.Segment(im2, wp)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Labels.Labels {
		if r2.Result.Labels.Labels[i] != want.Labels.Labels[i] {
			t.Fatalf("warm label %d differs from manual warm chain", i)
		}
	}

	// A dimension change must fall back to cold, not error.
	r3, err := pool.Submit(context.Background(), Job{Image: poolTestImage(24, 16), Params: params, StreamID: "cam0"})
	if err != nil {
		t.Fatal(err)
	}
	if r3.Warm {
		t.Fatal("geometry change reused stale centers")
	}
}

// TestPoolWarmStickyCPA: warm start needs PPA, so every frame of a CPA
// stream runs cold — the second must not fail validation on the
// stream's stored centers.
func TestPoolWarmStickyCPA(t *testing.T) {
	im := poolTestImage(48, 32)
	params := sslic.DefaultParams(12, 0.5)
	params.Arch = sslic.CPA
	want, err := sslic.Segment(im, params)
	if err != nil {
		t.Fatal(err)
	}

	pool := NewPool(PoolConfig{Workers: 1, QueueDepth: 2})
	defer pool.Close()
	for f := 0; f < 2; f++ {
		res, err := pool.Submit(context.Background(), Job{Image: im, Params: params, StreamID: "cam0"})
		if err != nil {
			t.Fatalf("CPA frame %d: %v", f, err)
		}
		if res.Warm {
			t.Fatalf("CPA frame %d reported warm", f)
		}
		for i := range want.Labels.Labels {
			if res.Result.Labels.Labels[i] != want.Labels.Labels[i] {
				t.Fatalf("CPA frame %d: label %d differs from a cold run", f, i)
			}
		}
	}
}

// TestLaneStreamsOnePerShard: a warm pipeline's lanes must each stick
// to a shard of their own, or two warm chains serialize on one worker
// while another idles.
func TestLaneStreamsOnePerShard(t *testing.T) {
	for workers := 1; workers <= 16; workers++ {
		p := newPool(PoolConfig{Workers: workers})
		for i, id := range p.laneStreams() {
			if p.shardFor(id) != p.shards[i] {
				t.Fatalf("workers=%d: lane %d stream %q is not on shard %d", workers, i, id, i)
			}
		}
	}
}

// blockingSegment is a SegmentFunc that parks until released, counting
// how many jobs entered.
type blockingSegment struct {
	entered atomic.Int64
	release chan struct{}
}

func (b *blockingSegment) fn(ctx context.Context, im *imgio.Image, p sslic.Params) (*sslic.Result, error) {
	b.entered.Add(1)
	select {
	case <-b.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return sslic.SegmentContext(ctx, im, p)
}

// TestPoolAdmissionControl: with every worker parked and every queue
// slot full, the next Submit must fail fast with ErrSaturated — and the
// parked work must still complete once released.
func TestPoolAdmissionControl(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	const workers, depth = 2, 1
	blk := &blockingSegment{release: make(chan struct{})}
	pool := NewPool(PoolConfig{Workers: workers, QueueDepth: depth, Segment: blk.fn})
	defer pool.Close()

	im := poolTestImage(16, 16)
	params := sslic.DefaultParams(4, 0.5)

	var wg sync.WaitGroup
	results := make(chan error, workers*(depth+1))
	// Stream-less jobs spread round-robin, so submitting one at a time
	// (waiting for each to be absorbed) fills every shard to exactly
	// 1 running + depth queued.
	submitted := 0
	for submitted < workers*(depth+1) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := pool.Submit(context.Background(), Job{Image: im, Params: params})
			results <- err
		}()
		submitted++
		// Wait until the job is either running or queued before the next
		// submission, so round-robin fills every slot deterministically.
		deadline := time.Now().Add(5 * time.Second)
		for int(blk.entered.Load())+pool.Queued() < submitted {
			if time.Now().After(deadline) {
				t.Fatal("pool never absorbed submission")
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Every slot is occupied: the next submission must be rejected.
	if _, err := pool.Submit(context.Background(), Job{Image: im, Params: params}); !errors.Is(err, ErrSaturated) {
		t.Fatalf("saturated Submit returned %v, want ErrSaturated", err)
	}

	close(blk.release)
	wg.Wait()
	close(results)
	for err := range results {
		if err != nil {
			t.Fatalf("admitted job failed: %v", err)
		}
	}
}

// TestPoolStreamlessTakesFreeShard: a job without a stream is refused
// only when every shard queue is full. One stream fills shard 0 (one
// job running, one queued) while shard 1 has room; round-robin alone
// would send every other stream-less job into shard 0's full queue.
func TestPoolStreamlessTakesFreeShard(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	blk := &blockingSegment{release: make(chan struct{})}
	pool := NewPool(PoolConfig{Workers: 2, QueueDepth: 1, Segment: blk.fn})
	defer pool.Close()
	// Runs before Close, so a failed check still unparks the workers.
	release := sync.OnceFunc(func() { close(blk.release) })
	defer release()

	im := poolTestImage(16, 16)
	params := sslic.DefaultParams(4, 0.5)
	stream := pool.laneStreams()[0]

	var reqs []*poolReq
	enqueue := func(id string) error {
		req, err := pool.enqueue(context.Background(), Job{Image: im, Params: params, StreamID: id})
		if err == nil {
			reqs = append(reqs, req)
		}
		return err
	}
	waitRunning := func(n int64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for blk.entered.Load() < n {
			if time.Now().After(deadline) {
				t.Fatalf("%d jobs running, want %d", blk.entered.Load(), n)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Each job lands in a free slot once the jobs before it have been
	// picked up by their workers.
	for i, step := range []struct {
		id      string
		running int64
	}{{stream, 1}, {stream, 1}, {"", 2}, {"", 2}} {
		if err := enqueue(step.id); err != nil {
			t.Fatalf("job %d (stream %q) refused with a free slot: %v", i, step.id, err)
		}
		waitRunning(step.running)
	}
	// Both workers run and both queues hold a job.
	for _, id := range []string{"", stream} {
		if err := enqueue(id); !errors.Is(err, ErrSaturated) {
			t.Fatalf("stream %q on a full pool: %v, want ErrSaturated", id, err)
		}
	}

	release()
	for i, req := range reqs {
		if rep := <-req.reply; rep.err != nil {
			t.Fatalf("admitted job %d failed: %v", i, rep.err)
		}
	}
}

// TestPoolSubmitCanceled: a context canceled while the job is queued
// must release the caller with the context error, and never run it.
func TestPoolSubmitCanceled(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	blk := &blockingSegment{release: make(chan struct{})}
	pool := NewPool(PoolConfig{Workers: 1, QueueDepth: 4, Segment: blk.fn})
	defer pool.Close()

	im := poolTestImage(16, 16)
	params := sslic.DefaultParams(4, 0.5)

	// Park the single worker.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		pool.Submit(context.Background(), Job{Image: im, Params: params})
	}()
	deadline := time.Now().Add(5 * time.Second)
	for blk.entered.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never started")
		}
		time.Sleep(time.Millisecond)
	}

	// Queue a job, then cancel it before the worker can reach it.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := pool.Submit(ctx, Job{Image: im, Params: params})
		done <- err
	}()
	for pool.Queued() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Submit returned %v", err)
	}

	entered := blk.entered.Load()
	close(blk.release)
	wg.Wait()
	if entered != 1 {
		t.Fatalf("canceled job entered the backend (%d entries)", entered)
	}
}

// TestPoolCloseDrains: Close must let admitted jobs finish, reject new
// ones, and never deadlock — even called concurrently with submitters.
func TestPoolCloseDrains(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	pool := NewPool(PoolConfig{Workers: 2, QueueDepth: 4})
	im := poolTestImage(32, 24)
	params := sslic.DefaultParams(6, 0.5)

	const clients = 8
	var ok, rejected, closedErr atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				res, err := pool.Submit(context.Background(), Job{Image: im, Params: params, StreamID: fmt.Sprintf("s%d", c)})
				switch {
				case err == nil && res != nil:
					ok.Add(1)
				case errors.Is(err, ErrSaturated):
					rejected.Add(1)
				case errors.Is(err, ErrPoolClosed):
					closedErr.Add(1)
				default:
					t.Errorf("unexpected submit outcome: %v, %v", res, err)
				}
			}
		}(c)
	}
	time.Sleep(time.Duration(rand.Intn(10)) * time.Millisecond)

	done := make(chan struct{})
	go func() { pool.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not drain within 30s (deadlock?)")
	}
	wg.Wait()

	if _, err := pool.Submit(context.Background(), Job{Image: im, Params: params}); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("post-Close Submit returned %v, want ErrPoolClosed", err)
	}
	if ok.Load() == 0 && rejected.Load() == 0 && closedErr.Load() == 0 {
		t.Fatal("no submissions observed")
	}
	t.Logf("ok=%d saturated=%d closed=%d", ok.Load(), rejected.Load(), closedErr.Load())
}
