package pipeline

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sslic/internal/faults"
	"sslic/internal/imgio"
	"sslic/internal/sslic"
	"sslic/internal/stream"
	"sslic/internal/telemetry/testutil"
)

// TestPoolRetriesTransientFault: a transient injected fault on the
// pool.run point must be absorbed by the retry layer — the job
// succeeds, and its output is byte-identical to a fault-free run.
func TestPoolRetriesTransientFault(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	inj := faults.New(1)
	// Fail the first two attempts deterministically, then run clean.
	inj.Set(faults.PointPoolRun, faults.PointConfig{Every: 1, MaxFires: 2, ErrMsg: "flaky backend"})
	faults.Enable(inj)
	defer faults.Disable()

	im := poolTestImage(32, 24)
	params := sslic.DefaultParams(6, 0.5)
	pool := NewPool(PoolConfig{Workers: 1, QueueDepth: 2, Retries: 2, RetryBackoff: time.Millisecond})
	defer pool.Close()

	res, err := pool.Submit(context.Background(), Job{Image: im, Params: params})
	if err != nil {
		t.Fatalf("job with %d transient faults and %d retries failed: %v", 2, 2, err)
	}
	st := inj.Stats()[faults.PointPoolRun]
	if st.Fires != 2 || st.Calls != 3 {
		t.Fatalf("fault point saw calls=%d fires=%d, want 3/2", st.Calls, st.Fires)
	}

	faults.Disable()
	want, err := sslic.Segment(im, params)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Labels.Labels {
		if res.Result.Labels.Labels[i] != want.Labels.Labels[i] {
			t.Fatalf("label %d differs from fault-free run after retries", i)
		}
	}
}

// TestPoolRetryBudgetExhausted: a fault that outlives the retry budget
// must surface as the injected (transient) error, not hang or panic.
func TestPoolRetryBudgetExhausted(t *testing.T) {
	inj := faults.New(1)
	inj.Set(faults.PointPoolRun, faults.PointConfig{Every: 1, ErrMsg: "permanent"})
	faults.Enable(inj)
	defer faults.Disable()

	pool := NewPool(PoolConfig{Workers: 1, QueueDepth: 2, Retries: 1, RetryBackoff: time.Millisecond})
	defer pool.Close()

	_, err := pool.Submit(context.Background(),
		Job{Image: poolTestImage(16, 16), Params: sslic.DefaultParams(4, 0.5)})
	if !faults.IsTransient(err) {
		t.Fatalf("exhausted retries returned %v, want injected error", err)
	}
	if st := inj.Stats()[faults.PointPoolRun]; st.Calls != 2 {
		t.Fatalf("attempts = %d, want 2 (1 try + 1 retry)", st.Calls)
	}
}

// TestPoolRetriesDisabled: Retries < 0 must mean exactly one attempt.
func TestPoolRetriesDisabled(t *testing.T) {
	inj := faults.New(1)
	inj.Set(faults.PointPoolRun, faults.PointConfig{Every: 1, ErrMsg: "fail"})
	faults.Enable(inj)
	defer faults.Disable()

	pool := NewPool(PoolConfig{Workers: 1, QueueDepth: 2, Retries: -1})
	defer pool.Close()

	_, err := pool.Submit(context.Background(),
		Job{Image: poolTestImage(16, 16), Params: sslic.DefaultParams(4, 0.5)})
	if !faults.IsTransient(err) {
		t.Fatalf("got %v, want injected error", err)
	}
	if st := inj.Stats()[faults.PointPoolRun]; st.Calls != 1 {
		t.Fatalf("attempts = %d, want 1 (retries disabled)", st.Calls)
	}
}

// TestPoolWatchdogAbandonsStuckFrame: a backend that ignores its
// context must be abandoned at deadline+grace with ErrWorkerStuck —
// the caller gets an error instead of the shard hanging — and the
// worker must go on to serve the next job.
func TestPoolWatchdogAbandonsStuckFrame(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	release := make(chan struct{})
	defer close(release) // let the orphaned attempt exit
	var calls atomic.Int64
	stuckOnce := func(ctx context.Context, im *imgio.Image, p sslic.Params) (*sslic.Result, error) {
		if calls.Add(1) == 1 {
			<-release // deliberately deaf to ctx
		}
		return sslic.SegmentContext(ctx, im, p)
	}

	pool := NewPool(PoolConfig{
		Workers: 1, QueueDepth: 2, Segment: stuckOnce,
		Retries: -1, WatchdogGrace: 20 * time.Millisecond,
	})
	defer pool.Close()

	im := poolTestImage(16, 16)
	params := sslic.DefaultParams(4, 0.5)

	// White-box: the attempt path must return ErrWorkerStuck at
	// deadline+grace. (Through Submit the caller's own ctx.Done fires
	// first at the bare deadline, so this is the only place the
	// sentinel is deterministically observable.)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := pool.runAttempt(ctx, im, params)
	if !errors.Is(err, ErrWorkerStuck) {
		t.Fatalf("stuck attempt returned %v, want ErrWorkerStuck", err)
	}
	if got := pool.stuck.Value(); got != 1 {
		t.Fatalf("stuck counter = %v, want 1", got)
	}

	// Black-box: a stuck frame must not wedge the shard. The caller
	// times out at its deadline; the watchdog then frees the worker,
	// and a healthy follow-up job completes.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel2()
	calls.Store(0) // re-arm the stuck path
	if _, err := pool.Submit(ctx2, Job{Image: im, Params: params}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stuck job returned %v, want deadline exceeded", err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := pool.Submit(context.Background(), Job{Image: im, Params: params})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("job after abandoned frame failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shard wedged behind a stuck frame — watchdog never freed it")
	}
}

// TestPoolPanicSentinel: a backend panic must come back as an error
// wrapping ErrSegmentPanic (the circuit breaker's classifier), with
// the worker surviving.
func TestPoolPanicSentinel(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	var calls atomic.Int64
	panicOnce := func(ctx context.Context, im *imgio.Image, p sslic.Params) (*sslic.Result, error) {
		if calls.Add(1) == 1 {
			panic("segfault at the corner case")
		}
		return sslic.SegmentContext(ctx, im, p)
	}
	pool := NewPool(PoolConfig{Workers: 1, QueueDepth: 2, Segment: panicOnce, Retries: -1})
	defer pool.Close()

	im := poolTestImage(16, 16)
	params := sslic.DefaultParams(4, 0.5)
	_, err := pool.Submit(context.Background(), Job{Image: im, Params: params})
	if !errors.Is(err, ErrSegmentPanic) {
		t.Fatalf("panicking job returned %v, want ErrSegmentPanic", err)
	}
	if err == nil || !strings.Contains(err.Error(), "corner case") {
		t.Fatalf("panic value lost from error: %v", err)
	}
	if res, err := pool.Submit(context.Background(), Job{Image: im, Params: params}); err != nil || res == nil {
		t.Fatalf("worker did not survive the panic: %v", err)
	}
}

// TestPoolHotStreamNeverEvictedMidFrame is the eviction regression
// test: when MaxStreams forces an eviction while the least-recently
// used stream still has a frame in flight (queued behind the job
// triggering the eviction), the victim must be the next idle stream —
// the hot stream keeps its warm state and its queued frame runs warm.
// Under strict LRU (the old policy) the hot stream would be evicted
// mid-frame and its queued frame would run cold.
func TestPoolHotStreamNeverEvictedMidFrame(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	step := make(chan struct{})
	var entered atomic.Int64
	gated := func(ctx context.Context, im *imgio.Image, p sslic.Params) (*sslic.Result, error) {
		entered.Add(1)
		<-step
		return sslic.SegmentContext(ctx, im, p)
	}
	pool := NewPool(PoolConfig{Workers: 1, QueueDepth: 4, Streams: stream.New(stream.Config{MaxStreams: 2}), Segment: gated})
	defer pool.Close()

	im := poolTestImage(32, 24)
	params := sslic.DefaultParams(6, 0.5)
	submit := func(stream string) chan *JobResult {
		out := make(chan *JobResult, 1)
		go func() {
			res, err := pool.Submit(context.Background(), Job{Image: im, Params: params, StreamID: stream})
			if err != nil {
				t.Errorf("stream %s: %v", stream, err)
			}
			out <- res
		}()
		return out
	}
	waitEntered := func(n int64) {
		deadline := time.Now().Add(5 * time.Second)
		for entered.Load() < n {
			if time.Now().After(deadline) {
				t.Fatalf("backend never reached %d entries", n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitQueued := func(n int) {
		deadline := time.Now().Add(5 * time.Second)
		for pool.Queued() < n {
			if time.Now().After(deadline) {
				t.Fatalf("queue never reached %d", n)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Frame 1 of the hot stream completes: warm state stored, "hot" is
	// the least-recently-used (and only) stream.
	r1 := submit("hot")
	waitEntered(1)
	step <- struct{}{}
	if res := <-r1; res.Warm {
		t.Fatal("first hot frame reported warm")
	}

	// Park the worker on stream "a", then queue "b" and a second hot
	// frame behind it. The hot stream is now mid-frame: one admitted,
	// undequeued job.
	ra := submit("a")
	waitEntered(2)
	rb := submit("b")
	waitQueued(1)
	r2 := submit("hot")
	waitQueued(2)

	// Finish "a" (stores its state; two streams held, at the cap), then
	// "b" — storing b's state forces the eviction. LRU order is
	// [hot, a]; hot is mid-frame, so "a" must be the victim.
	step <- struct{}{}
	<-ra
	waitEntered(3)
	step <- struct{}{}
	<-rb

	// The queued hot frame runs next; its warm state must have survived.
	waitEntered(4)
	step <- struct{}{}
	if res := <-r2; !res.Warm {
		t.Fatal("hot stream was evicted mid-frame: queued frame ran cold")
	}

	// And the eviction did happen — "a" lost its state.
	ra2 := submit("a")
	waitEntered(5)
	step <- struct{}{}
	if res := <-ra2; res.Warm {
		t.Fatal("idle stream a kept its state — no eviction occurred")
	}
}

// TestPoolHotStreamWarmBehindQueuedStreams: streams that are queued but
// have never run hold no state, so they cannot crowd a hot stream out
// of the table. The worker is parked on "x" while a second hot frame,
// "b" and "c" queue up (more queued streams than MaxStreams); the hot
// frame still runs warm.
func TestPoolHotStreamWarmBehindQueuedStreams(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	step := make(chan struct{})
	var entered atomic.Int64
	gated := func(ctx context.Context, im *imgio.Image, p sslic.Params) (*sslic.Result, error) {
		entered.Add(1)
		<-step
		return sslic.SegmentContext(ctx, im, p)
	}
	pool := NewPool(PoolConfig{Workers: 1, QueueDepth: 4, Streams: stream.New(stream.Config{MaxStreams: 2}), Segment: gated})
	defer pool.Close()

	im := poolTestImage(32, 24)
	params := sslic.DefaultParams(6, 0.5)
	submit := func(stream string) chan *JobResult {
		out := make(chan *JobResult, 1)
		go func() {
			res, err := pool.Submit(context.Background(), Job{Image: im, Params: params, StreamID: stream})
			if err != nil {
				t.Errorf("stream %s: %v", stream, err)
			}
			out <- res
		}()
		return out
	}
	waitFor := func(what string, cond func() bool) {
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("never reached: %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	run := func(n int64, out chan *JobResult) *JobResult {
		waitFor("backend entry", func() bool { return entered.Load() >= n })
		step <- struct{}{}
		return <-out
	}

	run(1, submit("hot"))
	rx := submit("x")
	waitFor("x running", func() bool { return entered.Load() >= 2 })
	var queued []chan *JobResult
	for i, id := range []string{"hot", "b", "c"} {
		queued = append(queued, submit(id))
		waitFor("queued jobs", func() bool { return pool.Queued() > i })
	}
	run(2, rx)
	if res := run(3, queued[0]); !res.Warm {
		t.Error("hot stream lost its state to streams still queued: its frame ran cold")
	}
	run(4, queued[1])
	run(5, queued[2])
}
