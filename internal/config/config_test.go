package config

import (
	"testing"
	"time"

	"xfaas/internal/sim"
)

func TestSetGetSubscribe(t *testing.T) {
	e := sim.NewEngine()
	s := NewStore(e)
	if _, _, ok := s.Get("missing"); ok {
		t.Fatal("Get of missing key should fail")
	}
	var delivered []int
	s.Subscribe("k", func(v Value, version uint64) {
		delivered = append(delivered, v.(int))
	})
	s.Set("k", 1)
	if len(delivered) != 0 {
		t.Fatal("delivery should wait for propagation delay")
	}
	e.RunFor(time.Minute)
	if len(delivered) != 1 || delivered[0] != 1 {
		t.Fatalf("delivered = %v", delivered)
	}
	v, version, ok := s.Get("k")
	if !ok || v.(int) != 1 || version != 1 {
		t.Fatalf("Get = %v v%d %v", v, version, ok)
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

func TestDowntimeKeepsCache(t *testing.T) {
	e := sim.NewEngine()
	s := NewStore(e)
	c := NewCache(s, "traffic-matrix")
	s.Set("traffic-matrix", 42)
	e.RunFor(time.Minute)
	if v, ok := c.Get(); !ok || v.(int) != 42 {
		t.Fatalf("cache = %v %v", v, ok)
	}
	s.SetDown(true)
	if s.Set("traffic-matrix", 43) {
		t.Fatal("Set during downtime should fail")
	}
	if _, _, ok := s.Get("traffic-matrix"); ok {
		t.Fatal("Get during downtime should fail")
	}
	// Critical path keeps the cached value (paper §4.1).
	if v, ok := c.Get(); !ok || v.(int) != 42 {
		t.Fatalf("cache during downtime = %v %v", v, ok)
	}
	s.SetDown(false)
	s.Set("traffic-matrix", 44)
	e.RunFor(time.Minute)
	if v, _ := c.Get(); v.(int) != 44 {
		t.Fatalf("cache after recovery = %v", v)
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

func TestSubscribeWhileDownNoBootstrap(t *testing.T) {
	e := sim.NewEngine()
	s := NewStore(e)
	s.Set("k", 1)
	s.SetDown(true)
	c := NewCache(s, "k")
	if _, ok := c.Get(); ok {
		t.Fatal("bootstrap delivered during downtime")
	}
	s.SetDown(false)
	s.Set("k", 2)
	e.RunFor(time.Minute)
	if v, ok := c.Get(); !ok || v.(int) != 2 {
		t.Fatalf("post-recovery delivery = %v %v", v, ok)
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

func TestStoreDownFlag(t *testing.T) {
	s := NewStore(sim.NewEngine())
	if s.Down() {
		t.Fatal("store must start up")
	}
	s.SetDown(true)
	if !s.Down() {
		t.Fatal("SetDown(true) not observed")
	}
	if s.Set("k", 1) {
		t.Fatal("Set must be rejected while down")
	}
	s.SetDown(false)
	if s.Down() {
		t.Fatal("SetDown(false) not observed")
	}
}
