package bufpool

import "sslic/internal/sslic"

// Scratch recycling: per-worker segmentation working memory (Lab
// planes, gradient maps, accumulator register files) flows through the
// pool like every other frame-sized buffer, so the held-bytes gauge and
// the hit/miss counters describe ALL resident recycled memory.
//
// Unlike images and label maps, a Scratch is self-sizing — it grows to
// the largest frame it has seen — so there is a single free list, not
// size classes. Workers typically take one at startup and keep it for
// their lifetime; the list exists so worker restarts and tests recycle
// instead of leak.

// GetScratch returns a reusable segmentation scratch, recycled when one
// is parked. The counters treat it like any other buffer: a recycled
// scratch is a hit, a fresh one a miss (its backing grows lazily inside
// the segmenter, so no fresh bytes are charged here).
func (p *Pool) GetScratch() *sslic.Scratch {
	p.mu.Lock()
	if n := len(p.scratch); n > 0 {
		s := p.scratch[n-1]
		p.scratch[n-1] = nil
		p.scratch = p.scratch[:n-1]
		p.mu.Unlock()
		p.hits.Inc()
		p.held.Add(-1)
		return s
	}
	p.mu.Unlock()
	p.misses.Inc()
	return sslic.NewScratch()
}

// PutScratch parks a scratch for reuse; nil is ignored. Overflow past
// MaxPerClass is dropped to the garbage collector like any other class
// list.
func (p *Pool) PutScratch(s *sslic.Scratch) {
	if s == nil {
		return
	}
	p.mu.Lock()
	if len(p.scratch) >= p.max {
		p.mu.Unlock()
		p.dropped.Inc()
		return
	}
	p.scratch = append(p.scratch, s)
	p.mu.Unlock()
	p.held.Add(1)
}
