package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// len reports the number of entries currently held.
func (m *memo[K, V]) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// has reports whether key currently holds an entry.
func (m *memo[K, V]) has(key K) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.entries[key]
	return ok
}

// TestMemoSingleFlight: concurrent callers of one key share a single
// computation, and every caller after the first counts as a hit.
func TestMemoSingleFlight(t *testing.T) {
	met := newMetrics()
	m := newMemo[string, int](memoResult, 0)
	release := make(chan struct{})
	var calls atomic.Int32
	const n = 8
	var wg sync.WaitGroup
	got := make([]int, n)
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := m.do(context.Background(), met, "k", func() (int, error) {
				calls.Add(1)
				<-release
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			got[i] = v
		}()
	}
	// Release once every caller is either computing or waiting.
	for met.memoHits[memoResult].Value()+met.memoMisses[memoResult].Value() < n {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if c := calls.Load(); c != 1 {
		t.Fatalf("key computed %d times, want 1", c)
	}
	for i, v := range got {
		if v != 42 {
			t.Fatalf("caller %d got %d", i, v)
		}
	}
	if h, mi := met.memoHits[memoResult].Value(), met.memoMisses[memoResult].Value(); h != n-1 || mi != 1 {
		t.Fatalf("hits %d misses %d, want %d and 1", h, mi, n-1)
	}
}

// TestMemoWaitHonorsContext: a waiter whose own context ends returns
// at once, and the computing caller still latches its value.
func TestMemoWaitHonorsContext(t *testing.T) {
	m := newMemo[string, int](memoResult, 0)
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan int)
	go func() {
		v, _ := m.do(context.Background(), nil, "k", func() (int, error) {
			close(started)
			<-release
			return 7, nil
		})
		done <- v
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.do(ctx, nil, "k", func() (int, error) {
		t.Fatal("waiter computed a key in flight")
		return 0, nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: err %v", err)
	}
	close(release)
	if v := <-done; v != 7 {
		t.Fatalf("owner got %d", v)
	}
	if v, err := m.do(context.Background(), nil, "k", nil); err != nil || v != 7 {
		t.Fatalf("latched value %d, %v", v, err)
	}
}

// TestMemoFIFOBoundAndFailures: the bound evicts oldest-first and
// counts it; a failed computation leaves no entry and no slot in the
// FIFO order.
func TestMemoFIFOBoundAndFailures(t *testing.T) {
	met := newMetrics()
	m := newMemo[int, int](memoBounds, 3)
	boom := errors.New("boom")
	if _, err := m.do(context.Background(), met, 99, func() (int, error) { return 0, boom }); err != boom {
		t.Fatalf("error not propagated: %v", err)
	}
	if m.has(99) || len(m.order) != 0 {
		t.Fatalf("failed computation latched: entries %d order %v", m.len(), m.order)
	}
	for k := range 5 {
		if _, err := m.do(context.Background(), met, k, func() (int, error) { return k, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if m.len() != 3 || m.has(0) || m.has(1) || !m.has(4) {
		t.Fatalf("FIFO kept the wrong keys: %v", m.order)
	}
	if ev := met.memoEvictions[memoBounds].Value(); ev != 2 {
		t.Fatalf("evictions %d, want 2", ev)
	}
}
