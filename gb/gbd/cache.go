package gbd

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/gb"
	"repro/internal/metrics"
)

// centry is one cache slot: closed done publishes bytes/err.
type centry struct {
	done  chan struct{}
	bytes []byte
	err   error
}

// cache memoizes rendered cell bytes with singleflight semantics: the
// first caller of a key computes, concurrent callers wait for that
// computation, later callers get the stored bytes. Cell results are fully
// determined by their key, so entries never expire and the byte-identity
// of cached vs computed responses is structural, not probabilistic.
//
// Deterministic failures (ErrBadSpec, ErrHorizon) are cached like
// successes — recomputing them would yield the same error. A computation
// killed by its request's cancellation is NOT representative of the key,
// so its entry is removed and waiters retry under their own contexts.
type cache struct {
	mu sync.Mutex
	m  map[string]*centry

	hits   *metrics.Counter
	misses *metrics.Counter
}

func newCache(hits, misses *metrics.Counter) *cache {
	return &cache{m: map[string]*centry{}, hits: hits, misses: misses}
}

// get returns the bytes for key, computing them via compute if absent.
// The second return reports a cache hit (stored or joined in-flight).
// compute runs on the calling goroutine; ctx only bounds the wait when
// another caller is computing.
func (c *cache) get(ctx context.Context, key string, compute func() ([]byte, error)) ([]byte, bool, error) {
	for {
		c.mu.Lock()
		e, ok := c.m[key]
		if !ok {
			e = &centry{done: make(chan struct{})}
			c.m[key] = e
			c.mu.Unlock()
			c.misses.Inc()
			e.bytes, e.err = compute()
			if e.err != nil && errors.Is(e.err, gb.ErrCanceled) {
				c.mu.Lock()
				delete(c.m, key)
				c.mu.Unlock()
			}
			close(e.done)
			return e.bytes, false, e.err
		}
		c.mu.Unlock()
		select {
		case <-e.done:
			if e.err != nil && errors.Is(e.err, gb.ErrCanceled) {
				// The computer's request died mid-cell; the entry is gone.
				// Retry: we may become the new computer.
				continue
			}
			c.hits.Inc()
			return e.bytes, true, e.err
		case <-ctx.Done():
			return nil, false, fmt.Errorf("gbd: waiting for cell: %w", gb.ErrCanceled)
		}
	}
}

// lookup returns key's finished entry without waiting and counts it as a
// hit. It returns nil when the key is absent, still being computed, or was
// abandoned by a canceled request: those cells go through get instead.
func (c *cache) lookup(key string) *centry {
	c.mu.Lock()
	e := c.m[key]
	c.mu.Unlock()
	if e == nil {
		return nil
	}
	select {
	case <-e.done:
	default:
		return nil
	}
	if e.err != nil && errors.Is(e.err, gb.ErrCanceled) {
		return nil
	}
	c.hits.Inc()
	return e
}

// len reports the number of stored or in-flight entries.
func (c *cache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// memoCap bounds the decode memo; at the cap it is cleared wholesale.
const memoCap = 64

// memo maps raw request bodies to their decoded requests, so a repeated
// body skips JSON decoding, spec parsing, canonical hashing and cell-key
// formatting. Only successful decodes are stored, and a stored request is
// read-only: concurrent requests with the same body share it.
type memo struct {
	mu sync.Mutex
	m  map[string]*request
}

func (m *memo) get(body []byte) *request {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.m[string(body)]
}

func (m *memo) put(body []byte, req *request) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.m == nil || len(m.m) >= memoCap {
		m.m = make(map[string]*request, memoCap)
	}
	m.m[string(body)] = req
}
