// Package config models Configerator (paper §4.3, [40]): a configuration
// management system that stores versioned configuration values and
// delivers them to subscribed critical-path components with a propagation
// delay. Subscribers cache the last delivered value, so function execution
// continues on stale configuration when the central controllers are down
// (paper §4.1's fault-tolerance contract).
package config

import (
	"time"

	"xfaas/internal/sim"
)

// Value is an opaque configuration payload. Producers and consumers agree
// on the concrete type per key (e.g. a traffic matrix, a routing policy).
type Value any

type versioned struct {
	value   Value
	version uint64
}

type subscription struct {
	key string
	fn  func(Value, uint64)
}

// Store is the central configuration service. Writes bump the version of
// a key; subscribers are notified after PropagationDelay of virtual time.
type Store struct {
	engine *sim.Engine
	// PropagationDelay is how long a write takes to reach subscribers.
	PropagationDelay time.Duration
	values           map[string]versioned
	subs             []*subscription
}

// NewStore returns a store on the given engine with a default propagation
// delay of 10 seconds (hyperscale config distribution is not instant).
func NewStore(engine *sim.Engine) *Store {
	return &Store{
		engine:           engine,
		PropagationDelay: 10 * time.Second,
		values:           make(map[string]versioned),
	}
}

// Set writes a new value for key. Subscribers observe the write after
// PropagationDelay.
func (s *Store) Set(key string, v Value) {
	cur := s.values[key]
	nv := versioned{value: v, version: cur.version + 1}
	s.values[key] = nv
	for _, sub := range s.subs {
		if sub.key != key {
			continue
		}
		sub := sub
		s.engine.Schedule(s.PropagationDelay, func() {
			// Deliver only if this is still the newest version; stale
			// deliveries are suppressed, mirroring last-writer-wins
			// config distribution.
			if s.values[key].version == nv.version {
				sub.fn(nv.value, nv.version)
			}
		})
	}
}

// Subscribe registers fn to receive future writes of key. If the key
// already has a value it is delivered immediately (synchronously), which
// gives components a deterministic bootstrap.
func (s *Store) Subscribe(key string, fn func(v Value, version uint64)) {
	s.subs = append(s.subs, &subscription{key: key, fn: fn})
	if cur, ok := s.values[key]; ok {
		fn(cur.value, cur.version)
	}
}

// Cache is a subscriber-side cached view of one key. Critical-path
// components read through a Cache so they keep operating on the last
// delivered value while no newer one arrives.
type Cache struct {
	value   Value
	version uint64
	has     bool
}

// NewCache subscribes a cache to key on store.
func NewCache(store *Store, key string) *Cache {
	c := &Cache{}
	store.Subscribe(key, func(v Value, version uint64) {
		c.value = v
		c.version = version
		c.has = true
	})
	return c
}

// Get returns the cached value; ok is false only if no value was ever
// delivered.
func (c *Cache) Get() (Value, bool) { return c.value, c.has }
