package ratelimit

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"xfaas/internal/function"
	"xfaas/internal/sim"
)

func reservedSpec(name string, quotaMIPS float64) *function.Spec {
	return &function.Spec{
		Name:      name,
		Namespace: "ns",
		Deadline:  time.Hour,
		Retry:     function.DefaultRetry,
		Quota:     function.QuotaReserved,
		QuotaMIPS: quotaMIPS,
		// CPU model with mean exp(0) = 1 MIPS/call.
		Resources: function.ResourceModel{CPUMu: 0, CPUSigma: 0.0001},
	}
}

func TestRPSLimitFromQuota(t *testing.T) {
	e := sim.NewEngine()
	c := NewCentral(e)
	s := reservedSpec("f", 100) // 100 MIPS quota, ~1 MIPS/call → ~100 RPS
	limit := c.RPSLimit(s)
	if math.Abs(limit-100) > 1 {
		t.Fatalf("limit = %v, want ≈100", limit)
	}
}

func TestUnlimitedWithoutQuota(t *testing.T) {
	e := sim.NewEngine()
	c := NewCentral(e)
	s := reservedSpec("f", 0)
	if c.RPSLimit(s) >= 0 {
		t.Fatal("zero quota should be unlimited")
	}
	if len(c.funcs) != 0 {
		t.Fatal("RPSLimit made state for a function without quota")
	}
	for i := 0; i < 10000; i++ {
		if !c.Allow(s) {
			t.Fatal("unlimited function throttled")
		}
	}
}

func TestAllowThrottlesAboveQuota(t *testing.T) {
	e := sim.NewEngine()
	c := NewCentral(e)
	s := reservedSpec("f", 10) // ~10 RPS
	allowed := 0
	// Offer 100 calls/sec for 30s.
	for sec := 0; sec < 30; sec++ {
		for i := 0; i < 100; i++ {
			if c.Allow(s) {
				allowed++
			}
		}
		e.RunFor(time.Second)
	}
	rate := float64(allowed) / 30
	if rate > 15 || rate < 5 {
		t.Fatalf("admitted rate = %v, want ≈10", rate)
	}
	if c.Throttled.Value() == 0 {
		t.Fatal("no throttling recorded")
	}
}

func TestOpportunisticScale(t *testing.T) {
	e := sim.NewEngine()
	c := NewCentral(e)
	s := reservedSpec("opp", 100)
	s.Quota = function.QuotaOpportunistic
	if l := c.RPSLimit(s); math.Abs(l-100) > 1 {
		t.Fatalf("S=1 limit = %v", l)
	}
	c.SetScale(0.5)
	if l := c.RPSLimit(s); math.Abs(l-50) > 1 {
		t.Fatalf("S=0.5 limit = %v", l)
	}
	c.SetScale(0)
	if l := c.RPSLimit(s); l != 0 {
		t.Fatalf("S=0 limit = %v", l)
	}
	if c.Allow(s) {
		t.Fatal("S=0 should stop opportunistic dispatch")
	}
	// Reserved functions are unaffected by S.
	r := reservedSpec("res", 100)
	if l := c.RPSLimit(r); math.Abs(l-100) > 1 {
		t.Fatalf("reserved limit with S=0 = %v", l)
	}
	c.SetScale(-3)
	if c.Scale() != 0 {
		t.Fatal("negative scale not clamped")
	}
}

func TestRecordCostShiftsLimit(t *testing.T) {
	e := sim.NewEngine()
	c := NewCentral(e)
	s := reservedSpec("f", 100)
	before := c.RPSLimit(s)
	// Observed cost is 10x the declared model: limit should fall.
	for i := 0; i < 200; i++ {
		c.RecordCost(s, 10)
	}
	after := c.RPSLimit(s)
	if after >= before {
		t.Fatalf("limit did not fall: before=%v after=%v", before, after)
	}
	if math.Abs(after-10) > 2 {
		t.Fatalf("converged limit = %v, want ≈10", after)
	}
	c.RecordCost(s, 0) // ignored
	c.RecordCost(s, -1)
	if math.Abs(c.RPSLimit(s)-after) > 1e-9 {
		t.Fatal("non-positive cost reports should be ignored")
	}
}

// levelAt returns the token level after refilling to now.
func (b *TokenBucket) levelAt(now sim.Time) float64 {
	b.refill(now)
	return b.level
}

func TestTokenBucketBasics(t *testing.T) {
	b := NewTokenBucket(10, 20)
	if !b.Allow(0, 20) {
		t.Fatal("full burst should be allowed")
	}
	if b.Allow(0, 1) {
		t.Fatal("empty bucket allowed")
	}
	if !b.Allow(time.Second, 10) {
		t.Fatal("refill after 1s should grant 10 tokens")
	}
	if b.levelAt(time.Second) != 0 {
		t.Fatalf("level = %v", b.levelAt(time.Second))
	}
}

func TestTokenBucketCapsAtBurst(t *testing.T) {
	b := NewTokenBucket(10, 20)
	if lvl := b.levelAt(time.Hour); lvl != 20 {
		t.Fatalf("level = %v, want capped at 20", lvl)
	}
}

func TestTokenBucketSetRate(t *testing.T) {
	b := NewTokenBucket(1, 100)
	b.Allow(0, 100)
	b.SetRate(0, 50)
	if !b.Allow(time.Second, 50) {
		t.Fatal("new rate not applied")
	}
}

// Property: bucket level stays in [0, burst] and total granted tokens
// never exceed burst + rate·elapsed.
func TestTokenBucketConservation(t *testing.T) {
	f := func(requests []uint8) bool {
		b := NewTokenBucket(5, 10)
		granted := 0.0
		now := sim.Time(0)
		for _, r := range requests {
			now += time.Duration(r%100) * time.Millisecond
			n := float64(r%4) + 1
			if b.Allow(now, n) {
				granted += n
			}
			lvl := b.levelAt(now)
			if lvl < 0 || lvl > 10 {
				return false
			}
		}
		budget := 10 + 5*now.Seconds() + 1e-9
		return granted <= budget
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFractionalLimitStillFlows(t *testing.T) {
	e := sim.NewEngine()
	c := NewCentral(e)
	// A heavy, rare function: quota implies ~0.05 RPS. The token bucket
	// must let roughly one call per 20 seconds through rather than
	// rounding the function out of existence.
	s := reservedSpec("rare-heavy", 0.05)
	allowed := 0
	for sec := 0; sec < 600; sec++ {
		if c.Allow(s) {
			allowed++
		}
		e.RunFor(time.Second)
	}
	if allowed < 20 || allowed > 45 {
		t.Fatalf("allowed = %d over 10m, want ≈30 at 0.05 RPS", allowed)
	}
}

func TestCurrentRPSTracksAdmission(t *testing.T) {
	e := sim.NewEngine()
	c := NewCentral(e)
	s := reservedSpec("f", 0)
	for sec := 0; sec < 20; sec++ {
		for i := 0; i < 5; i++ {
			c.Allow(s)
		}
		e.RunFor(time.Second)
	}
	got := c.CurrentRPS(s)
	if got < 4 || got > 6 {
		t.Fatalf("CurrentRPS = %v, want ≈5", got)
	}
}

func TestTokenBucketSetBurst(t *testing.T) {
	b := NewTokenBucket(10, 100)
	if b.burst != 100 {
		t.Fatalf("burst = %v", b.burst)
	}
	b.SetBurst(0, 5)
	if b.levelAt(0) > 5 {
		t.Fatalf("level not clamped: %v", b.levelAt(0))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive burst should panic")
		}
	}()
	b.SetBurst(0, 0)
}

func TestScaleChangeRebuildsBucket(t *testing.T) {
	e := sim.NewEngine()
	c := NewCentral(e)
	s := reservedSpec("opp", 100)
	s.Quota = function.QuotaOpportunistic
	// Admit at S=1 for a while, then S changes; the bucket must follow.
	for sec := 0; sec < 10; sec++ {
		c.Allow(s)
		e.RunFor(time.Second)
	}
	c.SetScale(0.1)
	denied := 0
	for sec := 0; sec < 10; sec++ {
		for i := 0; i < 50; i++ {
			if !c.Allow(s) {
				denied++
			}
		}
		e.RunFor(time.Second)
	}
	if denied == 0 {
		t.Fatal("scale cut did not tighten admission")
	}
}

func TestShedScalesOpportunisticLimit(t *testing.T) {
	e := sim.NewEngine()
	c := NewCentral(e)
	s := reservedSpec("opp", 100)
	s.Quota = function.QuotaOpportunistic
	base := c.RPSLimit(s)
	c.SetShed(0.5)
	if got := c.RPSLimit(s); math.Abs(got-base/2) > 1e-9 {
		t.Fatalf("limit = %v with shed 0.5, want %v", got, base/2)
	}
	if c.Scale() != 0.5 {
		t.Fatalf("Scale() = %v, want scale×shed = 0.5", c.Scale())
	}
	// Reserved quotas are never shed — only opportunistic admission is.
	r := reservedSpec("res", 100)
	if got := c.RPSLimit(r); math.Abs(got-100) > 1 {
		t.Fatalf("reserved limit = %v under shedding, want ≈100", got)
	}
}

func TestShedClampsAndRestores(t *testing.T) {
	e := sim.NewEngine()
	c := NewCentral(e)
	c.SetShed(-3)
	if c.Shed() != 0 {
		t.Fatalf("shed = %v, want clamp to 0", c.Shed())
	}
	c.SetShed(7)
	if c.Shed() != 1 {
		t.Fatalf("shed = %v, want clamp to 1", c.Shed())
	}
}

func TestMinCriticalityFloor(t *testing.T) {
	e := sim.NewEngine()
	c := NewCentral(e)
	if c.MinCriticality() != function.CritLow {
		t.Fatalf("default floor = %v", c.MinCriticality())
	}
	c.SetMinCriticality(function.CritNormal)
	if c.MinCriticality() != function.CritNormal {
		t.Fatalf("floor = %v after set", c.MinCriticality())
	}
}

// The quota-ceiling probe reads the watermark once per evaluation, and a
// run that ends on a probe tick is evaluated twice at one instant. Both
// reads must see the window that just closed: the limit fell during it, so
// a second read that saw only the window just begun would put the ceiling
// below the traffic the limiter legitimately admitted.
func TestPeakAllowedRPSReadTwiceAtOneInstant(t *testing.T) {
	e := sim.NewEngine()
	c := NewCentral(e)
	s := reservedSpec("opp", 100)
	s.Quota = function.QuotaOpportunistic
	for i := 0; i < 50; i++ {
		c.Allow(s) // admitted under the full limit
	}
	c.SetShed(0.25)
	e.RunFor(time.Second)
	first := c.TakePeakAllowedRPS(s)
	if cur := c.CurrentRPS(s); cur > first {
		t.Fatalf("measured %v rps above the first read's ceiling %v", cur, first)
	}
	if second := c.TakePeakAllowedRPS(s); second != first {
		t.Fatalf("second read at the same instant allows %v rps, the first allowed %v", second, first)
	}
	e.RunFor(time.Minute)
	if next := c.TakePeakAllowedRPS(s); next >= first {
		t.Fatalf("a later read still allows %v rps: the shed window's watermark never started", next)
	}
}
