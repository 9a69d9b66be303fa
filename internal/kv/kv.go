// Package kv is a minimal sharded key-value store. XFaaS submitters use it
// to offload large function arguments out of the DurableQ write path
// (paper §4.2).
package kv

import "hash/fnv"

// Store is a sharded in-memory key-value store.
type Store struct {
	shards []map[string][]byte
}

// NewStore returns a store with the given shard count (min 1).
func NewStore(shards int) *Store {
	shards = max(shards, 1)
	s := &Store{shards: make([]map[string][]byte, shards)}
	for i := range s.shards {
		s.shards[i] = make(map[string][]byte)
	}
	return s
}

func (s *Store) shardOf(key string) map[string][]byte {
	h := fnv.New32a()
	h.Write([]byte(key))
	return s.shards[int(h.Sum32())%len(s.shards)]
}

// Put stores value under key, replacing any previous value.
func (s *Store) Put(key string, value []byte) { s.shardOf(key)[key] = value }
