// Package trigger implements the event sources that invoke XFaaS
// functions (paper §3.1): timer schedules that fire on preset timing,
// Kafka-like data streams whose arriving records trigger event functions
// (the source of the paper's late-2022 50x growth jump, §2.1), and
// orchestration workflows that chain functions on completion. Each
// trigger turns external events into calls submitted through the
// platform's normal submitter tier.
package trigger

import (
	"time"

	"xfaas/internal/cluster"
	"xfaas/internal/function"
	"xfaas/internal/sim"
	"xfaas/internal/stats"
	"xfaas/internal/workload"
)

// Timers fires timer-triggered functions on fixed schedules.
type Timers struct {
	engine *sim.Engine
	submit workload.SubmitFunc

	Fired  stats.Counter
	Errors stats.Counter
}

// NewTimers returns a timer service submitting through submit.
func NewTimers(engine *sim.Engine, submit workload.SubmitFunc) *Timers {
	return &Timers{engine: engine, submit: submit}
}

// TimerHandle cancels a registered schedule.
type TimerHandle struct {
	stopped bool
	pre     sim.Timer
	tk      *sim.Ticker
}

// Stop cancels the schedule, whether or not its first firing happened.
func (h *TimerHandle) Stop() {
	h.stopped = true
	h.pre.Stop()
	if h.tk != nil {
		h.tk.Stop()
	}
}

// Schedule registers a timer: the first firing happens after offset
// (after one full interval when offset ≤ 0), then every interval.
func (t *Timers) Schedule(model *workload.FuncModel, region cluster.RegionID, every, offset time.Duration) *TimerHandle {
	if every <= 0 {
		panic("trigger: non-positive timer interval")
	}
	if offset <= 0 {
		offset = every
	}
	h := &TimerHandle{}
	fire := func() {
		c := model.NewCall(t.engine.Now())
		t.Fired.Inc()
		if err := t.submit(region, model.Client, c); err != nil {
			t.Errors.Inc()
		}
	}
	h.pre = t.engine.Schedule(offset, func() {
		if h.stopped {
			return
		}
		fire()
		h.tk = t.engine.Every(every, fire)
	})
	return h
}

// Stream is a Kafka-like topic: producers append records to partitions;
// a consumer loop periodically turns backlog into event-triggered
// function calls, batching records per invocation and preserving
// per-partition ordering pressure via a lag metric.
type Stream struct {
	Topic string

	engine *sim.Engine
	submit workload.SubmitFunc
	model  *workload.FuncModel
	region cluster.RegionID

	// BatchSize is the number of records consumed per invocation.
	BatchSize int
	// PollInterval is the consumer cadence.
	PollInterval time.Duration

	backlog []int // per partition
	ticker  *sim.Ticker

	Produced    stats.Counter
	Invocations stats.Counter
	Errors      stats.Counter
	// LagSeries samples total backlog per minute.
	LagSeries *stats.TimeSeries
}

// NewStream returns a running stream trigger with the given partition
// count feeding model's function.
func NewStream(engine *sim.Engine, submit workload.SubmitFunc, model *workload.FuncModel,
	region cluster.RegionID, topic string, partitions int) *Stream {
	if partitions <= 0 {
		panic("trigger: non-positive partition count")
	}
	s := &Stream{
		Topic:        topic,
		engine:       engine,
		submit:       submit,
		model:        model,
		region:       region,
		BatchSize:    10,
		PollInterval: time.Second,
		backlog:      make([]int, partitions),
		LagSeries:    stats.NewTimeSeries(time.Minute, stats.ModeMean),
	}
	s.ticker = engine.Every(s.PollInterval, s.consume)
	return s
}

// Produce appends n records to the partition owning key.
func (s *Stream) Produce(key uint64, n int) {
	s.backlog[int(key%uint64(len(s.backlog)))] += n
	s.Produced.Add(float64(n))
}

// Lag returns the total unconsumed backlog.
func (s *Stream) Lag() int {
	n := 0
	for _, b := range s.backlog {
		n += b
	}
	return n
}

// Stop halts consumption (the backlog then only grows).
func (s *Stream) Stop() { s.ticker.Stop() }

func (s *Stream) consume() {
	now := s.engine.Now()
	for p := range s.backlog {
		for s.backlog[p] > 0 {
			batch := min(s.BatchSize, s.backlog[p])
			c := s.model.NewCall(now)
			s.Invocations.Inc()
			if err := s.submit(s.region, s.model.Client, c); err != nil {
				s.Errors.Inc()
				break // back off this partition until next poll
			}
			s.backlog[p] -= batch
		}
	}
	s.LagSeries.Record(now, float64(s.Lag()))
}

// CompletionSource is the surface a workflow needs from the platform:
// registration of completion listeners (core.Platform implements it).
type CompletionSource interface {
	AddOnExecuted(func(*function.Call))
}

// Workflow chains functions: each successful completion of step i
// submits step i+1 — the paper's orchestration-workflow trigger.
type Workflow struct {
	submit workload.SubmitFunc
	region cluster.RegionID
	steps  []*workload.FuncModel
	index  map[string]int // spec name → step position

	Started   stats.Counter
	StepRuns  stats.Counter
	Completed stats.Counter
}

// NewWorkflow wires a chain of function models into source's completion
// stream. Step specs must be distinct functions.
func NewWorkflow(source CompletionSource, submit workload.SubmitFunc,
	region cluster.RegionID, steps ...*workload.FuncModel) *Workflow {
	if len(steps) == 0 {
		panic("trigger: empty workflow")
	}
	w := &Workflow{
		submit: submit,
		region: region,
		steps:  steps,
		index:  make(map[string]int, len(steps)),
	}
	for i, m := range steps {
		if _, dup := w.index[m.Spec.Name]; dup {
			panic("trigger: duplicate step function " + m.Spec.Name)
		}
		w.index[m.Spec.Name] = i
	}
	source.AddOnExecuted(w.onExecuted)
	return w
}

// Start launches one workflow instance by submitting the first step.
func (w *Workflow) Start(now sim.Time) error {
	w.Started.Inc()
	return w.submitStep(0, now)
}

func (w *Workflow) submitStep(i int, now sim.Time) error {
	c := w.steps[i].NewCall(now)
	w.StepRuns.Inc()
	return w.submit(w.region, w.steps[i].Client, c)
}

func (w *Workflow) onExecuted(c *function.Call) {
	i, ok := w.index[c.Spec.Name]
	if !ok {
		return
	}
	if i+1 < len(w.steps) {
		w.submitStep(i+1, c.ExecEndAt)
		return
	}
	w.Completed.Inc()
}
