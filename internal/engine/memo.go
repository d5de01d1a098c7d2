package engine

import (
	"context"
	"sync"
)

// memo is the engine's one memoization mechanism: a concurrency-safe
// map from key to value in which each key is computed at most once at a
// time. Concurrent callers with the same key block on the first
// computation (single flight), and that wait honors each waiter's own
// context. A failed computation is evicted at once and never latched,
// so a cancelled context does not poison the key; a waiter that
// observes another caller's failure retries with its own computation
// rather than inheriting an error — such as a cancellation — that
// belongs to someone else's context. With max > 0 the memo is a
// bounded FIFO: beyond max entries the oldest is evicted (with
// deterministic values, re-deriving an evicted entry is harmless).
// Hits, misses and evictions feed the family's counters.
type memo[K comparable, V any] struct {
	family string
	max    int // FIFO bound; 0 = unbounded

	mu      sync.Mutex
	entries map[K]*memoEntry[V]
	order   []K // insertion order, kept only when bounded
}

// memoEntry latches one computation. done is closed when it finishes;
// waiters then read val/err without a lock (the single write
// happens-before the close).
type memoEntry[V any] struct {
	done chan struct{}
	val  V
	err  error
}

func newMemo[K comparable, V any](family string, max int) *memo[K, V] {
	return &memo[K, V]{family: family, max: max, entries: make(map[K]*memoEntry[V])}
}

// do returns the memoized value of key, running compute on the calling
// goroutine when no entry exists, and counts the event in met (nil:
// uncounted).
func (m *memo[K, V]) do(ctx context.Context, met *Metrics, key K, compute func() (V, error)) (V, error) {
	v, e, err := m.claim(ctx, met, key)
	if err != nil || e == nil {
		return v, err
	}
	v, err = compute()
	m.settle(key, e, v, err)
	return v, err
}

// claim returns the latched value of key, waiting for an in-flight
// computation, or a non-nil owned entry: the caller then computes the
// value itself and must publish it with settle. Waiting is
// cancellable: a waiter whose ctx expires returns immediately instead
// of blocking for the duration of someone else's computation.
func (m *memo[K, V]) claim(ctx context.Context, met *Metrics, key K) (v V, owned *memoEntry[V], err error) {
	for {
		m.mu.Lock()
		e, ok := m.entries[key]
		if !ok {
			break // claim it ourselves, mu still held
		}
		m.mu.Unlock()
		met.memoHit(m.family)
		select {
		case <-e.done:
		case <-ctx.Done():
			return v, nil, ctx.Err()
		}
		if e.err == nil {
			return e.val, nil, nil
		}
		// The computing caller failed (its entry is already evicted);
		// loop and run our own computation under our own context.
	}
	e := &memoEntry[V]{done: make(chan struct{})}
	m.entries[key] = e
	if m.max > 0 {
		m.order = append(m.order, key)
		if len(m.order) > m.max {
			// Holders of the evicted entry still complete or read their
			// latch safely; only the map slot is recycled.
			delete(m.entries, m.order[0])
			m.order = m.order[1:]
			met.memoEvict(m.family)
		}
	}
	m.mu.Unlock()
	met.memoMiss(m.family)
	return v, e, nil
}

// settle publishes the owner's result and releases every waiter. A
// failed computation is evicted first, so waiters retry.
func (m *memo[K, V]) settle(key K, e *memoEntry[V], v V, err error) {
	e.val, e.err = v, err
	if err != nil {
		m.mu.Lock()
		if m.entries[key] == e {
			delete(m.entries, key)
			for i, k := range m.order {
				if k == key {
					m.order = append(m.order[:i], m.order[i+1:]...)
					break
				}
			}
		}
		m.mu.Unlock()
	}
	close(e.done)
}
