package kv

import (
	"fmt"
	"testing"
)

func TestShardConsistency(t *testing.T) {
	s := NewStore(16)
	for i := 0; i < 1000; i++ {
		s.Put(fmt.Sprintf("key-%d", i), []byte{byte(i)})
	}
	n := 0
	for _, sh := range s.shards {
		n += len(sh)
	}
	if n != 1000 {
		t.Fatalf("len = %d", n)
	}
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("key-%d", i)
		if v, ok := s.shardOf(k)[k]; !ok || v[0] != byte(i) {
			t.Fatalf("%s not in the shard it hashes to", k)
		}
	}
}
