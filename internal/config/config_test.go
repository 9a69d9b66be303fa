package config

import (
	"testing"
	"time"

	"xfaas/internal/sim"
)

func TestSetGetSubscribe(t *testing.T) {
	e := sim.NewEngine()
	s := NewStore(e)
	var delivered []int
	var versions []uint64
	s.Subscribe("k", func(v Value, version uint64) {
		delivered = append(delivered, v.(int))
		versions = append(versions, version)
	})
	s.Set("k", 1)
	if len(delivered) != 0 {
		t.Fatal("delivery should wait for propagation delay")
	}
	e.RunFor(time.Minute)
	if len(delivered) != 1 || delivered[0] != 1 || versions[0] != 1 {
		t.Fatalf("delivered = %v, versions %v", delivered, versions)
	}
}

func TestSubscribeExistingDeliversImmediately(t *testing.T) {
	e := sim.NewEngine()
	s := NewStore(e)
	s.Set("k", "hello")
	got := ""
	s.Subscribe("k", func(v Value, _ uint64) { got = v.(string) })
	if got != "hello" {
		t.Fatalf("bootstrap delivery = %q", got)
	}
}

func TestStaleWritesSuppressed(t *testing.T) {
	e := sim.NewEngine()
	s := NewStore(e)
	var got []int
	s.Subscribe("k", func(v Value, _ uint64) { got = append(got, v.(int)) })
	s.Set("k", 1)
	s.Set("k", 2) // supersedes 1 before propagation completes
	e.RunFor(time.Minute)
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("deliveries = %v, want only latest", got)
	}
}

func TestVersionsIncrement(t *testing.T) {
	e := sim.NewEngine()
	s := NewStore(e)
	c := NewCache(s, "k")
	for i := 1; i <= 5; i++ {
		s.Set("k", i)
		e.RunFor(time.Minute)
		if c.version != uint64(i) {
			t.Fatalf("version = %d, want %d", c.version, i)
		}
	}
}

func TestMultipleSubscribers(t *testing.T) {
	e := sim.NewEngine()
	s := NewStore(e)
	a := NewCache(s, "k")
	b := NewCache(s, "k")
	other := NewCache(s, "unrelated")
	s.Set("k", 7)
	e.RunFor(time.Minute)
	if v, _ := a.Get(); v.(int) != 7 {
		t.Fatal("subscriber a missed update")
	}
	if v, _ := b.Get(); v.(int) != 7 {
		t.Fatal("subscriber b missed update")
	}
	if _, ok := other.Get(); ok {
		t.Fatal("unrelated key should have no value")
	}
}

func TestDefaultSections(t *testing.T) {
	o := DefaultObserve()
	if o.Enabled {
		t.Fatal("observation must default off")
	}
	if !o.EnableAll().Enabled || o.Enabled {
		t.Fatal("Observe.EnableAll must switch a copy on")
	}

	var r Resilience
	if !r.EnableAll().Enabled || r.Enabled {
		t.Fatal("Resilience.EnableAll must switch a copy on")
	}
}
