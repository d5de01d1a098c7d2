// Package engine is a fixture mirror of the memoization layer.
package engine

import (
	"repro/internal/netlist"
	"repro/internal/store"
)

type taskKey string

type resultEntry struct{ data []byte }

// memo mirrors the production generic memo.
type memo[K comparable, V any] struct{ entries map[K]V }

// Cache mirrors the production memo shape: results is properly typed,
// bounds regressed to a raw string key.
type Cache struct {
	results *memo[taskKey, *resultEntry]
	bounds  *memo[string, float64] // want `Cache.bounds is keyed by string`
	aliases *memo[string, string]
	tier    store.Store
}

func storeKeyFor(key taskKey) string { return string(key) }

// goodKey derives the memo key from content.
func goodKey(c *netlist.Circuit) taskKey {
	return taskKey(netlist.Fingerprint(c))
}

// badKey derives the memo key from the display name.
func badKey(c *netlist.Circuit) taskKey {
	return taskKey("proc/" + c.Name) // want `built from Circuit.Name`
}

// goodStore goes through storeKeyFor.
func (ca *Cache) goodStore(key taskKey) ([]byte, error) {
	return ca.tier.Get(storeKeyFor(key))
}

// badStore hands the durable tier a raw key.
func (ca *Cache) badStore(key taskKey, data []byte) error {
	return ca.tier.Put(string(key), data) // want `store.Put key must be derived via storeKeyFor`
}
