package experiment

import (
	"time"
)

func runRIM(s Scale, r *Result) {
	window := simWindow(s, 45*time.Minute, 30*time.Minute)
	// Two functions offer 80 RPS against a 60-RPS downstream — a modest,
	// sustained overload where proactive pacing can act before shedding.
	run := func(enableRIM bool) (backpressure, served, availability float64) {
		p := incidentRig(s, "tao", 60, 40, 0, 60).build().P
		if enableRIM {
			// incidentRig disables RIM; re-enable by rebuilding advice
			// from the platform's RIM-less config is not possible, so
			// instead run with the congestion manager reading the
			// service's live utilization directly — equivalent to RIM
			// with zero propagation delay.
			svc, _ := p.Downstreams.Get("tao")
			p.Cong.Advice = func(name string) float64 {
				if name != "tao" {
					return 1
				}
				over := svc.Overload()
				switch {
				case over <= 0.8:
					return 1
				case over >= 1.2:
					return 0.05
				default:
					return 1 - (over-0.8)/0.4*0.95
				}
			}
		}
		svc, _ := p.Downstreams.Get("tao")
		p.Engine.RunFor(window)
		return svc.Backpressure.Value(), svc.Served.Value(), svc.Availability()
	}

	bpWith, servedWith, availWith := run(true)
	bpWithout, servedWithout, availWithout := run(false)
	r.row("back-pressure exceptions (RIM on)", "few: paced proactively", "%.0f", bpWith)
	r.row("back-pressure exceptions (RIM off)", "many: reactive only", "%.0f", bpWithout)
	r.row("downstream availability (on vs off)", "higher with RIM", "%.1f%% vs %.1f%%", 100*availWith, 100*availWithout)
	r.row("requests served (on vs off)", "comparable", "%.0f vs %.0f", servedWith, servedWithout)
	r.check("RIM reduces back-pressure exceptions", bpWith < bpWithout*0.7,
		"%.0f vs %.0f", bpWith, bpWithout)
	r.check("RIM improves availability", availWith >= availWithout,
		"%.2f vs %.2f", availWith, availWithout)
	r.check("RIM still serves meaningful load", servedWith > servedWithout*0.5,
		"%.0f vs %.0f", servedWith, servedWithout)
	r.note("RIM advice is modeled here with zero propagation delay; the platform wiring (core.Config.EnableRIM) publishes it through the configuration store with realistic lag.")
}
