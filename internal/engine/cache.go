// Characterization cache: the engine memoizes every reusable
// sub-problem of the protocol — the library Flimit table of a process
// corner (the Fig. 7 "library characterization" step, shared by every
// job on that corner), the Tmin/Tmax delay bounds of a path (shared by
// every Tc point of a sweep and by repeated submissions of the same
// circuit), and whole (circuit, Tc, leakage-policy) task results
// (shared by repeated submissions — the common case for a long-running
// daemon). Every memo is a value of the one generic memo type
// (memo.go): entries are computed once under a per-key latch, so
// concurrent workers hitting the same key block on one computation
// instead of duplicating it.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/buffering"
	"repro/internal/delay"
	"repro/internal/gate"
	"repro/internal/leakage"
	"repro/internal/netlist"
	"repro/internal/sizing"
	"repro/internal/store"
)

// taskKey indexes the result memo and, hashed through storeKeyFor, the
// durable tier. It is a distinct type so the compiler keeps memo keys
// apart from circuit names and the other string-shaped identifiers in
// the engine: a taskKey is only minted by resultKey, whose circuit
// component is a content fingerprint, never a display name (the PR-5
// aliasing bug class, now also policed by the memokey analyzer).
type taskKey string

// boundsKey indexes the path-bounds memo: process corner plus
// content-derived path signature.
type boundsKey string

// Cache memoizes per-process characterization artifacts. The zero
// value is not usable; call NewCache. A Cache is safe for concurrent
// use and is shared by all workers of an Engine.
type Cache struct {
	// limits memoizes the library characterization per process
	// corner (unbounded and uncounted: corners are few).
	limits *memo[string, characterization]

	// Path-bounds memo, bounded FIFO: its keys derive from
	// client-supplied netlists, so like the result memo it must not
	// grow without bound in a long-running daemon.
	bounds *memo[boundsKey, pathBounds]

	// Result memoization: completed optimization tasks keyed by
	// (process, circuit fingerprint, Tc, ratio, leakage policy),
	// bounded FIFO.
	results *memo[taskKey, *OptimizeResult]

	// aliases maps a suite circuit name to the canonical fingerprint
	// of its deterministically generated netlist. Keying results by
	// fingerprint instead of name keeps the memo sound when inline
	// netlists share a name; the alias preserves the cheap name-based
	// lookup (and every existing cache hit) for suite requests. Its
	// keys are the finite suite names, so it needs no bound.
	aliases *memo[string, string]

	// metrics receives hit/miss/eviction events per memo family. The
	// engine wires its instrument set in at construction; a standalone
	// cache leaves it nil (every event method is nil-safe).
	metrics *Metrics

	// tier is the durable result store behind the in-memory result
	// memo (nil: memory-only, the default). A memo miss probes it
	// before computing; a computed result is written through to it. The
	// tier outlives the process, so a restarted daemon serves repeated
	// tasks without recomputation. The result memo is not redundant
	// with store.Memory: the memo latches decoded *OptimizeResult
	// values under single flight, while store.Memory is the byte-level
	// Store fake behind the store, batcher and engine tests (exported
	// as pops.MemoryStore).
	tier store.Store
}

// characterization is one process corner's library characterization:
// the Flimit table rows and the derived per-gate limit map.
type characterization struct {
	entries []buffering.TableEntry
	limits  map[gate.Type]float64
}

// MaxResultEntries and MaxBoundsEntries bound the result and bounds
// memos; beyond them the oldest entry is evicted (FIFO — with
// deterministic results, re-deriving an evicted entry is harmless).
// Both memos are fed by untrusted request streams, so neither may grow
// without bound.
const (
	MaxResultEntries = 4096
	MaxBoundsEntries = 4096
)

// NewCache returns an empty characterization cache.
func NewCache() *Cache {
	return &Cache{
		limits:  newMemo[string, characterization]("", 0),
		bounds:  newMemo[boundsKey, pathBounds](memoBounds, MaxBoundsEntries),
		results: newMemo[taskKey, *OptimizeResult](memoResult, MaxResultEntries),
		aliases: newMemo[string, string](memoAlias, 0),
	}
}

// Alias returns the memoized canonical fingerprint of a named suite
// circuit, computing it through fp on the first request. Suite
// benchmarks generate deterministically, so the mapping is stable.
func (ca *Cache) Alias(name string, fp func() (string, error)) (string, error) {
	return ca.aliases.do(context.Background(), ca.metrics, name, fp)
}

// Characterization returns the memoized library characterization of
// the model's process corner: the Table 2 rows (gate, driver, Flimit)
// and the per-gate insertion-limit map consumed by the protocol.
func (ca *Cache) Characterization(m *delay.Model) ([]buffering.TableEntry, map[gate.Type]float64) {
	ch, _ := ca.limits.do(context.Background(), nil, m.Proc.Name, func() (characterization, error) {
		entries := buffering.CharacterizeLibrary(m, nil, buffering.Options{})
		return characterization{entries: entries, limits: buffering.Limits(entries)}, nil
	})
	return ch.entries, ch.limits
}

// Limits returns the memoized Flimit lookup for the model's corner.
func (ca *Cache) Limits(m *delay.Model) map[gate.Type]float64 {
	_, lim := ca.Characterization(m)
	return lim
}

// Bounds returns the memoized Tmin/Tmax delay bounds of a path,
// keyed by process corner + path signature. The path itself is never
// mutated: the solvers run on throwaway clones. The sizing options are
// not part of the key — a cache belongs to one Engine, whose options
// are fixed at construction. Waiting on another caller's computation
// of the same key honors ctx.
func (ca *Cache) Bounds(ctx context.Context, m *delay.Model, pa *delay.Path, opts sizing.Options) (tmin, tmax float64, err error) {
	key := boundsKey(m.Proc.Name + "/" + PathSignature(pa))
	b, err := ca.bounds.do(ctx, ca.metrics, key, func() (pathBounds, error) {
		tmax := sizing.Tmax(m, pa.Clone())
		r, err := sizing.Tmin(m, pa.Clone(), opts)
		if err != nil {
			return pathBounds{}, err
		}
		return pathBounds{tmin: r.Delay, tmax: tmax}, nil
	})
	return b.tmin, b.tmax, err
}

// Result returns the memoized outcome of one optimization task,
// computing it at most once per key across all workers of the engine
// (see memo for the latch, cancellation and failure rules). Concurrent
// callers with the same key block on the first computation (their own
// pool slots stay held, but the latch never waits on a slot, so the
// pool cannot deadlock).
//
// Second tier: a memo miss probes the durable store before paying for
// a computation. A tier hit latches into the memo exactly like a
// computed result, so every waiter on this key is served, and it is
// never written back. A corrupt or unreadable record counts as a store
// error and falls through to computation. A computed result is written
// through after its waiters are released (repairing any corrupt
// record).
func (ca *Cache) Result(ctx context.Context, key taskKey, compute func() (*OptimizeResult, error)) (*OptimizeResult, error) {
	res, e, err := ca.results.claim(ctx, ca.metrics, key)
	if err != nil || e == nil {
		return res, err
	}
	if ca.tier != nil {
		if res, ok := ca.tierGet(key); ok {
			ca.results.settle(key, e, res, nil)
			return res, nil
		}
	}
	res, err = compute()
	ca.results.settle(key, e, res, err)
	if err == nil && ca.tier != nil {
		ca.tierPut(key, res)
	}
	return res, err
}

// tierGet probes the durable tier for a memoized task, reporting
// whether it was served. Every outcome feeds the store counters.
func (ca *Cache) tierGet(key taskKey) (*OptimizeResult, bool) {
	data, err := ca.tier.Get(storeKeyFor(key))
	if err != nil {
		if errors.Is(err, store.ErrNotFound) {
			ca.metrics.storeMiss()
		} else {
			ca.metrics.storeError()
		}
		return nil, false
	}
	res, err := decodeStoredResult(data)
	if err != nil {
		// A record that passed the store's checksum but fails the result
		// schema (format drift across versions): recompute and overwrite.
		ca.metrics.storeError()
		return nil, false
	}
	ca.metrics.storeHit()
	return res, true
}

// tierPut writes a computed result through to the durable tier.
// Persistence failures never fail the task — the result is already
// latched in memory — they only count store errors.
func (ca *Cache) tierPut(key taskKey, res *OptimizeResult) {
	data, err := encodeStoredResult(res)
	if err != nil {
		ca.metrics.storeError()
		return
	}
	if err := ca.tier.Put(storeKeyFor(key), data); err != nil {
		ca.metrics.storeError()
		return
	}
	ca.metrics.storeWrite()
}

// resultKey spells out one (process, circuit, request, leakage policy)
// task as a delimited string — the components themselves, not a hash,
// so distinct tasks can never collide into each other's memo entry.
// The circuit is identified by its canonical content fingerprint
// (netlist.Fingerprint), never by a client-chosen name: two different
// netlists sharing a name occupy distinct entries, and identical
// netlists under different names share one. Floats are keyed by their
// exact bit patterns. The leakage policy is part of the key only when
// the request's flag is on, so retuning the engine-wide policy never
// aliases dynamic-only entries.
func resultKey(proc, circuit string, req OptimizeRequest, pol leakage.Options) taskKey {
	key := fmt.Sprintf("%s|%s|%x|%x", proc, circuit,
		math.Float64bits(req.Tc), math.Float64bits(req.Ratio))
	if !req.Leakage {
		return taskKey(key + "|dyn")
	}
	return taskKey(key + fmt.Sprintf("|leak|%x|%d|%d|%x|%x|%v|%d",
		math.Float64bits(pol.Power.FrequencyMHz),
		pol.Power.Vectors,
		pol.Power.Seed,
		math.Float64bits(pol.Power.InputActivity),
		math.Float64bits(pol.STA.InputTau),
		pol.CapAtSVT,
		pol.MaxPromotions))
}

// PathSignature returns a stable fingerprint of a path's optimization
// sub-problem: the stage cell sequence with sizes and off-path loads,
// plus the entry transition time. Two paths with equal signatures have
// identical delay bounds; the path name is deliberately excluded. The
// hash is SHA-256, not a 64-bit mixer: the bounds memo is shared
// across clients of a long-running daemon that now ingests untrusted
// netlists, so a crafted collision must not be able to alias one
// path's cached Tmin/Tmax onto another's (the same reasoning that
// keys the result memo on netlist.Fingerprint).
func PathSignature(pa *delay.Path) string {
	h := netlist.NewCanonicalHasher()
	h.Float(pa.TauIn)
	h.Word(uint64(len(pa.Stages)))
	for i := range pa.Stages {
		st := &pa.Stages[i]
		h.Word(uint64(st.Cell.Type))
		h.Float(st.CIn)
		h.Float(st.COff)
	}
	return h.Sum()
}
