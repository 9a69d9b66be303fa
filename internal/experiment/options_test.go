package experiment

import (
	"strings"
	"sync"
	"testing"
)

const invariantsCheck = "invariants hold (zero violations)"

func mustGet(t *testing.T, id string) *Experiment {
	t.Helper()
	e, ok := Get(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	return e
}

// TestConcurrentOptionsMatchSerial: options travel with the run, so two
// runs of one experiment under different options, side by side, each
// render exactly what they render alone. Meaningful under -race.
func TestConcurrentOptionsMatchSerial(t *testing.T) {
	t.Parallel()
	e := mustGet(t, "chaos_retrystorm")
	opts := []Scale{
		{Quick: true, Seed: 7, Policy: "pull", Invariants: true},
		{Quick: true, Seed: 7, Policy: "push"},
		{Quick: true, Seed: 7, Observe: true},
	}
	serial := make([]string, len(opts))
	for i, s := range opts {
		serial[i] = e.Run(s).Render(true)
	}
	if serial[0] == serial[1] {
		t.Fatal("pull+invariants and push rendered the same: the options did not reach the run")
	}
	concurrent := make([]string, len(opts))
	var wg sync.WaitGroup
	for i, s := range opts {
		wg.Add(1)
		go func(i int, s Scale) {
			defer wg.Done()
			concurrent[i] = e.Run(s).Render(true)
		}(i, s)
	}
	wg.Wait()
	for i := range opts {
		if concurrent[i] != serial[i] {
			t.Errorf("options %+v: concurrent run differs from its serial run\n--- serial\n%s--- concurrent\n%s",
				opts[i], serial[i], concurrent[i])
		}
	}
}

// TestInvariantsOptionSweepsOwnPlatforms: Invariants appends exactly one
// check, over the platforms this run built — not over those of runs
// before it — and changes nothing else; off, nothing is appended.
func TestInvariantsOptionSweepsOwnPlatforms(t *testing.T) {
	t.Parallel()
	plain := Scale{Quick: true, Seed: 3}
	checked := Scale{Quick: true, Seed: 3, Invariants: true}

	mustGet(t, "chaos_zipfneighbor").Run(checked) // an earlier run, with platforms of its own
	storm := mustGet(t, "chaos_retrystorm")
	off, on := storm.Run(plain), storm.Run(checked)
	for _, c := range off.Checks {
		if c.Name == invariantsCheck {
			t.Fatal("invariants check appended with the option off")
		}
	}
	if len(on.Checks) != len(off.Checks)+1 {
		t.Fatalf("Invariants added %d checks, want 1", len(on.Checks)-len(off.Checks))
	}
	last := on.Checks[len(on.Checks)-1]
	// The retry storm builds an undefended and a defended platform.
	if last.Name != invariantsCheck || !last.OK || !strings.Contains(last.Detail, "across 2 platform(s)") {
		t.Fatalf("appended check = %+v, want a passing sweep of the storm's 2 platforms", last)
	}
	on.Checks = on.Checks[:len(on.Checks)-1]
	if got, want := on.Render(true), off.Render(true); got != want {
		t.Errorf("Invariants changed more than the appended check\n--- off\n%s--- on\n%s", want, got)
	}

	// A borrowed platform — the shared standard run — is swept by each
	// figure that reads it, once.
	for _, id := range []string{"fig8", "fig11"} {
		res := mustGet(t, id).Run(checked)
		last := res.Checks[len(res.Checks)-1]
		if last.Name != invariantsCheck || !strings.Contains(last.Detail, "across 1 platform(s)") {
			t.Errorf("%s: last check = %+v, want a sweep of the one borrowed platform", id, last)
		}
	}
}
