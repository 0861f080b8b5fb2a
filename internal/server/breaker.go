package server

import (
	"sync"
	"time"

	"sslic/internal/telemetry"
)

// breaker states, mirrored onto the sslic_server_breaker_state gauge.
const (
	breakerClosed   = 0
	breakerOpen     = 1
	breakerHalfOpen = 2
)

// breaker is the server's panic-rate circuit breaker. A segmentation
// backend that panics occasionally is isolated per-frame by the pool;
// one that panics at a sustained rate (a poisoned model, a corrupted
// shared buffer) burns a worker-restart's worth of work per request.
// When threshold panics land within window, the breaker opens and the
// segment endpoint fast-fails with 503 — no decode, no queueing —
// until a cooldown passes; then a single probe request is let through:
// success closes the circuit, a panic re-opens it, and any other
// terminal outcome releases the probe slot so the next request probes.
type breaker struct {
	threshold int
	window    time.Duration
	cooldown  time.Duration
	now       func() time.Time // injectable clock for tests

	mu       sync.Mutex
	state    int
	panics   []time.Time // panic times within the sliding window
	openedAt time.Time
	probing  bool   // a half-open probe is in flight
	probeGen uint64 // current probe's generation, guards stale releases

	stateGauge *telemetry.Gauge
	opens      *telemetry.Counter
	fastFails  *telemetry.Counter
}

// newBreaker wires a breaker onto the registry. now == nil selects the
// wall clock. labels distinguish multiple breakers on one registry —
// the multi-tenant server runs one breaker per tenant
// (tenant=<key>), so one tenant's poisoned frames can never fast-fail
// another tenant's traffic; the single-tenant server registers one
// unlabeled breaker.
func newBreaker(threshold int, window, cooldown time.Duration, reg *telemetry.Registry, now func() time.Time, labels ...telemetry.Label) *breaker {
	if now == nil {
		now = time.Now
	}
	return &breaker{
		threshold: threshold,
		window:    window,
		cooldown:  cooldown,
		now:       now,
		stateGauge: reg.Gauge("sslic_server_breaker_state",
			"Panic circuit breaker state (0 closed, 1 open, 2 half-open).", labels...),
		opens: reg.Counter("sslic_server_breaker_opens_total",
			"Times the panic circuit breaker opened.", labels...),
		fastFails: reg.Counter("sslic_server_breaker_fast_fails_total",
			"Requests refused by the open circuit breaker.", labels...),
	}
}

// allow reports whether a request may proceed. In the open state it
// returns false until the cooldown elapses, then lets exactly one
// probe through at a time. When the admitted request is that probe,
// probeDone is non-nil and the caller MUST invoke it when the request
// reaches any terminal outcome — otherwise a probe that ends without a
// success or a panic (bad request, saturation, deadline, client
// cancel, shed) would hold the probe slot forever and wedge the
// endpoint in permanent fast-fail. A nil breaker (breakers disabled)
// admits everything, and its record methods do nothing.
func (b *breaker) allow() (ok bool, probeDone func()) {
	if b == nil {
		return true, nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true, nil
	case breakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			b.fastFails.Inc()
			return false, nil
		}
		b.setState(breakerHalfOpen)
		return true, b.startProbe()
	default: // half-open
		if b.probing {
			b.fastFails.Inc()
			return false, nil
		}
		return true, b.startProbe()
	}
}

// startProbe marks a probe in flight and returns its release func.
// The release is idempotent and generation-guarded: it frees the probe
// slot only if this probe is still unresolved — recordSuccess and
// recordPanic settle the conclusive outcomes first, and a slot already
// handed to a newer probe is left alone. An inconclusive outcome says
// nothing about backend health, so the circuit stays half-open and the
// next request becomes a fresh probe. Caller holds mu.
func (b *breaker) startProbe() func() {
	b.probing = true
	b.probeGen++
	gen := b.probeGen
	return func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		if b.state == breakerHalfOpen && b.probing && b.probeGen == gen {
			b.probing = false
		}
	}
}

// recordPanic notes one backend panic. A panicking probe re-opens the
// circuit immediately; in the closed state the sliding window decides.
func (b *breaker) recordPanic() {
	if b == nil {
		return
	}
	now := b.now()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		b.open(now)
		return
	}
	b.panics = append(b.panics, now)
	b.prune(now)
	if b.state == breakerClosed && len(b.panics) >= b.threshold {
		b.open(now)
	}
}

// recordSuccess notes one successfully segmented request. A successful
// probe closes the circuit and forgives the panic history.
func (b *breaker) recordSuccess() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		b.setState(breakerClosed)
		b.probing = false
		b.panics = nil
	}
}

// open transitions to open. Caller holds mu.
func (b *breaker) open(now time.Time) {
	b.setState(breakerOpen)
	b.openedAt = now
	b.probing = false
	b.panics = nil
	b.opens.Inc()
}

// prune drops panic records older than the window. Caller holds mu.
func (b *breaker) prune(now time.Time) {
	cut := now.Add(-b.window)
	i := 0
	for i < len(b.panics) && b.panics[i].Before(cut) {
		i++
	}
	b.panics = b.panics[i:]
}

// setState transitions and mirrors to telemetry. Caller holds mu.
func (b *breaker) setState(s int) {
	b.state = s
	b.stateGauge.Set(float64(s))
}
