package xfaas

import (
	"xfaas/internal/trigger"
	"xfaas/internal/workload"
)

// FuncModel pairs a function spec with arrival dynamics and per-call
// resource draws.
type FuncModel = workload.FuncModel

// NewFuncModel returns a constant-rate model for spec; trigger services
// and generators draw calls from it.
func NewFuncModel(spec *FunctionSpec, meanRPS float64, client string, src *Rand) *FuncModel {
	return workload.NewModel(spec, meanRPS, client, src)
}

// SubmitFunc is how calls enter a platform (region, client, call).
type SubmitFunc = workload.SubmitFunc

// Timers fires timer-triggered functions on preset schedules (§3.1).
type Timers = trigger.Timers

// NewTimers returns a timer trigger service submitting through submit.
func NewTimers(engine *Engine, submit SubmitFunc) *Timers {
	return trigger.NewTimers(engine, submit)
}

// TimerHandle cancels a registered timer schedule.
type TimerHandle = trigger.TimerHandle

// Stream is a Kafka-like data-stream trigger (§2.1, §3.1).
type Stream = trigger.Stream

// NewStream returns a running stream trigger feeding model's function.
func NewStream(engine *Engine, submit SubmitFunc, model *FuncModel,
	region RegionID, topic string, partitions int) *Stream {
	return trigger.NewStream(engine, submit, model, region, topic, partitions)
}

// WorkflowTrigger chains functions on completion — the orchestration
// trigger family (§3.1).
type WorkflowTrigger = trigger.Workflow

// NewWorkflowTrigger wires a completion-chained function pipeline into
// the platform.
func NewWorkflowTrigger(p *Platform, submit SubmitFunc,
	region RegionID, steps ...*FuncModel) *WorkflowTrigger {
	return trigger.NewWorkflow(p, submit, region, steps...)
}

// Day is the diurnal period used by the workload models.
const Day = workload.Day
