package trigger

import (
	"errors"
	"math"
	"testing"
	"time"

	"xfaas/internal/cluster"
	"xfaas/internal/core"
	"xfaas/internal/function"
	"xfaas/internal/isolation"
	"xfaas/internal/rng"
	"xfaas/internal/sim"
	"xfaas/internal/workload"
)

func model(name string, trig function.TriggerType, seed uint64) *workload.FuncModel {
	spec := &function.Spec{
		Name:      name,
		Namespace: "main",
		Runtime:   "php",
		Team:      "team-t",
		Trigger:   trig,
		Deadline:  time.Hour,
		Retry:     function.DefaultRetry,
		Zone:      isolation.NewZone(isolation.Internal),
		Resources: function.ResourceModel{
			CPUMu: math.Log(10), CPUSigma: 0.3,
			MemMu: math.Log(8), MemSigma: 0.3,
			TimeMu: math.Log(0.1), TimeSigma: 0.3,
			CodeMB: 8, JITCodeMB: 4,
		},
	}
	return workload.NewModel(spec, 0, "team-t", rng.New(seed))
}

type capture struct {
	calls []*function.Call
	fail  bool
}

func (c *capture) submit(_ cluster.RegionID, _ string, call *function.Call) error {
	if c.fail {
		return errors.New("submitter down")
	}
	c.calls = append(c.calls, call)
	return nil
}

func TestTimersFireOnSchedule(t *testing.T) {
	e := sim.NewEngine()
	cap := &capture{}
	ts := NewTimers(e, cap.submit)
	ts.Schedule(model("cron", function.TriggerTimer, 1), 0, 10*time.Minute, 0)
	e.RunFor(time.Hour)
	if len(cap.calls) != 6 {
		t.Fatalf("firings = %d, want 6 per hour at 10m", len(cap.calls))
	}
	if ts.Fired.Value() != 6 {
		t.Fatalf("fired counter = %v", ts.Fired.Value())
	}
}

func TestTimersOffsetAndStop(t *testing.T) {
	e := sim.NewEngine()
	cap := &capture{}
	ts := NewTimers(e, cap.submit)
	h := ts.Schedule(model("cron", function.TriggerTimer, 2), 0, time.Hour, 5*time.Minute)
	e.RunFor(6 * time.Minute)
	if len(cap.calls) != 1 {
		t.Fatalf("firings after offset = %d, want 1", len(cap.calls))
	}
	h.Stop()
	e.RunFor(3 * time.Hour)
	if len(cap.calls) != 1 {
		t.Fatalf("stopped timer kept firing: %d", len(cap.calls))
	}
}

func TestTimersStopBeforeFirstFiring(t *testing.T) {
	e := sim.NewEngine()
	cap := &capture{}
	ts := NewTimers(e, cap.submit)
	h := ts.Schedule(model("cron", function.TriggerTimer, 3), 0, time.Hour, 30*time.Minute)
	h.Stop()
	e.RunFor(5 * time.Hour)
	if len(cap.calls) != 0 {
		t.Fatalf("stopped-before-offset timer fired %d times", len(cap.calls))
	}
}

func TestTimersSubmitErrorsCounted(t *testing.T) {
	e := sim.NewEngine()
	cap := &capture{fail: true}
	ts := NewTimers(e, cap.submit)
	ts.Schedule(model("cron", function.TriggerTimer, 4), 0, time.Minute, 0)
	e.RunFor(5 * time.Minute)
	if ts.Errors.Value() != 5 {
		t.Fatalf("errors = %v", ts.Errors.Value())
	}
}

func TestStreamConsumesBacklogInBatches(t *testing.T) {
	e := sim.NewEngine()
	cap := &capture{}
	s := NewStream(e, cap.submit, model("logproc", function.TriggerEvent, 5), 0, "falco-events", 4)
	s.Produce(0, 25)
	s.Produce(1, 5)
	e.RunFor(5 * time.Second)
	// Partition 0: 25 records → 3 invocations (10+10+5); partition 1: 1.
	if len(cap.calls) != 4 {
		t.Fatalf("invocations = %d, want 4", len(cap.calls))
	}
	if s.Lag() != 0 {
		t.Fatalf("lag = %d after consumption", s.Lag())
	}
	if s.Produced.Value() != 30 {
		t.Fatalf("produced = %v", s.Produced.Value())
	}
}

func TestStreamLagGrowsWhenStopped(t *testing.T) {
	e := sim.NewEngine()
	cap := &capture{}
	s := NewStream(e, cap.submit, model("logproc", function.TriggerEvent, 7), 0, "t", 2)
	s.Stop()
	for i := 0; i < 10; i++ {
		s.Produce(uint64(i), 10)
	}
	e.RunFor(time.Minute)
	if s.Lag() != 100 {
		t.Fatalf("lag = %d, want 100 with consumer stopped", s.Lag())
	}
	if len(cap.calls) != 0 {
		t.Fatal("stopped consumer invoked functions")
	}
}

func TestStreamBacksOffOnSubmitError(t *testing.T) {
	e := sim.NewEngine()
	cap := &capture{fail: true}
	s := NewStream(e, cap.submit, model("logproc", function.TriggerEvent, 9), 0, "t", 1)
	s.Produce(0, 100)
	e.RunFor(3 * time.Second)
	if s.Lag() != 100 {
		t.Fatalf("lag = %d, want backlog intact on errors", s.Lag())
	}
	if s.Errors.Value() < 2 {
		t.Fatalf("errors = %v", s.Errors.Value())
	}
}

// workflowRig wires a real platform so completions flow back to the
// workflow trigger.
func workflowRig(t *testing.T) (*core.Platform, []*workload.FuncModel) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Cluster.Regions = 1
	cfg.Cluster.TotalWorkers = 4
	cfg.CodePushInterval = 0
	reg := function.NewRegistry()
	var steps []*workload.FuncModel
	for _, name := range []string{"extract", "transform", "load"} {
		m := model(name, function.TriggerQueue, 11)
		reg.MustRegister(m.Spec)
		steps = append(steps, m)
	}
	return core.New(cfg, reg), steps
}

func TestWorkflowChainsSteps(t *testing.T) {
	p, steps := workflowRig(t)
	w := NewWorkflow(p, p.SubmitFunc(), 0, steps...)
	if err := w.Start(p.Engine.Now()); err != nil {
		t.Fatalf("start: %v", err)
	}
	p.Engine.RunFor(10 * time.Minute)
	if w.Completed.Value() != 1 {
		t.Fatalf("completed = %v", w.Completed.Value())
	}
	if w.StepRuns.Value() != 3 {
		t.Fatalf("step runs = %v, want 3", w.StepRuns.Value())
	}
}

func TestWorkflowManyInstances(t *testing.T) {
	p, steps := workflowRig(t)
	w := NewWorkflow(p, p.SubmitFunc(), 0, steps...)
	for i := 0; i < 20; i++ {
		w.Start(p.Engine.Now())
	}
	p.Engine.RunFor(30 * time.Minute)
	if w.Completed.Value() != 20 {
		t.Fatalf("completed = %v, want 20", w.Completed.Value())
	}
	if w.StepRuns.Value() != 60 {
		t.Fatalf("step runs = %v, want 60", w.StepRuns.Value())
	}
}

func TestWorkflowIgnoresForeignCompletions(t *testing.T) {
	p, steps := workflowRig(t)
	foreign := model("unrelated", function.TriggerQueue, 12)
	p.Registry.MustRegister(foreign.Spec)
	w := NewWorkflow(p, p.SubmitFunc(), 0, steps...)
	// An unrelated function completing must not advance the workflow.
	p.Submit(0, "team-t", foreign.NewCall(0))
	p.Engine.RunFor(10 * time.Minute)
	if w.StepRuns.Value() != 0 || w.Completed.Value() != 0 {
		t.Fatalf("workflow advanced on foreign completion: runs=%v", w.StepRuns.Value())
	}
}

func TestWorkflowDuplicateStepPanics(t *testing.T) {
	p, steps := workflowRig(t)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate step should panic")
		}
	}()
	NewWorkflow(p, p.SubmitFunc(), 0, steps[0], steps[0])
}

func TestStreamLargeKeysPartitionSafely(t *testing.T) {
	e := sim.NewEngine()
	cap := &capture{}
	s := NewStream(e, cap.submit, model("logproc", function.TriggerEvent, 13), 0, "t", 3)
	// Keys above math.MaxInt64 must not produce negative partitions.
	s.Produce(^uint64(0), 5)
	s.Produce(uint64(1)<<63, 5)
	if s.Lag() != 10 {
		t.Fatalf("lag = %d", s.Lag())
	}
}
