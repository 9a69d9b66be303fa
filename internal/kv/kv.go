// Package kv is an empty shell. The simulator does not model paper §4.2's
// argument offload, because nothing in it charges for argument bytes;
// Store and NewStore remain only because benchmark/ passes a store to
// submitter.New.
package kv

// Store holds nothing.
type Store struct{}

// NewStore returns an empty store; the shard count is ignored.
func NewStore(int) *Store { return &Store{} }
