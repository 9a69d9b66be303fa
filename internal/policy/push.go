package policy

// Push is the paper's push/lease policy: the default pipeline stages in
// their original order, nothing more. It draws no policy randomness and
// keeps no state, so a seeded run under Push is byte-identical to the
// pre-policy scheduler — the refactor's determinism gate.
type Push struct {
	Base
	h Host
}

// Attach implements Policy.
func (p *Push) Attach(h Host) { p.h = h }

// Tick runs poll → shed → schedule → dispatch, exactly the pre-policy
// scheduler tick.
func (p *Push) Tick() {
	p.h.DefaultPoll()
	p.h.DefaultShedSweep()
	p.h.DefaultSchedule()
	p.h.DefaultDispatch()
}
