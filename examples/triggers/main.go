// Triggers: drive a platform through the paper's trigger families (§3.1)
// instead of direct submissions — a Kafka-like data stream feeding a
// Falco-style log processor, a timer firing a Notification-style
// campaign, and an orchestration workflow chaining extract → transform →
// load.
package main

import (
	"fmt"
	"math"
	"time"

	"xfaas"
	"xfaas/internal/function"
)

func declare(reg *xfaas.Registry, name string, trig function.TriggerType, seed uint64) *xfaas.FuncModel {
	spec := &xfaas.FunctionSpec{
		Name:      name,
		Namespace: "main",
		Runtime:   "php",
		Team:      "team-triggers",
		Trigger:   trig,
		Deadline:  15 * time.Minute,
		Retry:     xfaas.RetryPolicy{MaxAttempts: 3, Backoff: 10 * time.Second},
		Zone:      xfaas.NewZone(xfaas.Internal),
		Resources: xfaas.ResourceModel{
			CPUMu: math.Log(20), CPUSigma: 0.4,
			MemMu: math.Log(16), MemSigma: 0.4,
			TimeMu: math.Log(0.2), TimeSigma: 0.4,
			CodeMB: 8, JITCodeMB: 4,
		},
	}
	reg.MustRegister(spec)
	return xfaas.NewFuncModel(spec, 0, spec.Team, xfaas.NewRand(seed))
}

func main() {
	cfg := xfaas.DefaultConfig()
	cfg.Cluster.Regions = 2
	cfg.Cluster.TotalWorkers = 8
	cfg.CodePushInterval = 0

	reg := xfaas.NewRegistry()
	logproc := declare(reg, "falco-logproc", xfaas.TriggerEvent, 1)
	campaign := declare(reg, "notification-campaign", xfaas.TriggerTimer, 2)
	extract := declare(reg, "etl-extract", xfaas.TriggerQueue, 3)
	transform := declare(reg, "etl-transform", xfaas.TriggerQueue, 4)
	load := declare(reg, "etl-load", xfaas.TriggerQueue, 5)

	p := xfaas.New(cfg, reg)
	submit := p.SubmitFunc()

	// 1. Data stream (the trigger family behind the paper's 50x growth
	//    jump): 8 partitions of log records feeding falco-logproc.
	stream := xfaas.NewStream(p.Engine, submit, logproc, 0, "falco-events", 8)
	producer := xfaas.NewRand(7)
	p.Engine.Every(time.Second, func() {
		// ~200 records/s with bursts.
		n := producer.Poisson(200)
		stream.Produce(producer.Uint64(), n)
	})

	// 2. Timer: a campaign function fires every 15 minutes.
	timers := xfaas.NewTimers(p.Engine, submit)
	timers.Schedule(campaign, 1, 15*time.Minute, 3*time.Minute)

	// 3. Orchestration workflow: completion-chained ETL, one instance
	//    every 10 minutes.
	etl := xfaas.NewWorkflowTrigger(p, submit, 0, extract, transform, load)
	p.Engine.Every(10*time.Minute, func() { etl.Start(p.Engine.Now()) })

	p.Engine.RunFor(2 * time.Hour)

	fmt.Println("== triggers: streams, timers and workflows (paper §3.1) ==")
	fmt.Printf("stream %q: produced %.0f records → %.0f invocations, lag now %d\n",
		stream.Topic, stream.Produced.Value(), stream.Invocations.Value(), stream.Lag())
	fmt.Printf("timer campaigns fired: %.0f\n", timers.Fired.Value())
	fmt.Printf("ETL workflow: %.0f started, %.0f step runs, %.0f completed\n",
		etl.Started.Value(), etl.StepRuns.Value(), etl.Completed.Value())
	fmt.Printf("platform: %.0f calls executed, utilization %.1f%%\n",
		p.Acked(), 100*p.MeanUtilization())
}
