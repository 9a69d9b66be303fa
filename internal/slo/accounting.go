// Package slo implements fleet accounting and SLO evaluation on the
// simulated clock: per-worker core-second meters whose busy + idle
// integrals close exactly against capacity × elapsed, windowed
// utilization timelines per region / criticality / fleet (the paper's
// Fig. 3 curves), per-tenant cost attribution, and a Google-SRE-style
// multi-window burn-rate alerter over per-criticality objectives. Both
// halves follow the repository's nil-safe instrumentation pattern: every
// hook is a no-op on a nil receiver, so the disabled path costs one
// branch and zero allocations.
package slo

import (
	"sort"
	"time"

	"xfaas/internal/function"
	"xfaas/internal/sim"
	"xfaas/internal/stats"
)

// numCrit is the number of criticality classes (low/normal/high).
const numCrit = 3

// WorkerMeter integrates one worker's busy and idle core-seconds on the
// simulated clock. The worker adjusts a per-criticality busy-core rate at
// execution start and finish; between adjustments the meter integrates
// rate × dt, so the invariant
//
//	Σ busy[crit] + idle == capacity × (now − created)
//
// holds exactly (up to float accumulation) at every instant — the
// utilization-closure invariant probe checks it continuously. All methods
// are nil-safe and allocation-free.
type WorkerMeter struct {
	acct     *Accountant
	region   int
	capacity float64 // cores
	coreMIPS float64
	created  sim.Time
	last     sim.Time
	rate     [numCrit]float64 // busy cores right now, by criticality
	busy     [numCrit]float64 // integrated busy core-seconds, by criticality
	idle     float64          // integrated idle core-seconds
}

// advanceTo integrates the current rates up to now.
func (m *WorkerMeter) advanceTo(now sim.Time) {
	dt := (now - m.last).Seconds()
	if dt <= 0 {
		return
	}
	var busy float64
	for i := range m.rate {
		m.busy[i] += m.rate[i] * dt
		busy += m.rate[i]
	}
	m.idle += (m.capacity - busy) * dt
	m.last = now
}

// ExecStart records that a call started executing at now, occupying
// mips/CoreMIPS cores of the given criticality.
func (m *WorkerMeter) ExecStart(now sim.Time, crit function.Criticality, mips float64) {
	if m == nil {
		return
	}
	m.advanceTo(now)
	m.rate[critIndex(crit)] += mips / m.coreMIPS
}

// ExecEnd records that a call stopped occupying mips/CoreMIPS cores at
// now (successful finish, failed finish, or worker-crash eviction).
func (m *WorkerMeter) ExecEnd(now sim.Time, crit function.Criticality, mips float64) {
	if m == nil {
		return
	}
	m.advanceTo(now)
	m.rate[critIndex(crit)] -= mips / m.coreMIPS
}

// Waste attributes elapsed × mips/CoreMIPS core-seconds of retry waste
// (an execution that ended in error or was evicted by a worker crash, so
// its work must be redone) to the call's tenant.
func (m *WorkerMeter) Waste(team string, mips float64, elapsed time.Duration) {
	if m == nil || elapsed <= 0 {
		return
	}
	m.acct.tenant(team).waste.Add(mips / m.coreMIPS * elapsed.Seconds())
}

// ClosureError advances the meter to now and returns the absolute error
// of the accounting identity busy + idle − capacity × elapsed, in
// core-seconds. Exact integration on the sim clock keeps it at float
// round-off (~1e-16 relative).
func (m *WorkerMeter) ClosureError(now sim.Time) float64 {
	m.advanceTo(now)
	got := m.idle
	for _, b := range m.busy {
		got += b
	}
	want := m.capacity * (now - m.created).Seconds()
	if got > want {
		return got - want
	}
	return want - got
}

// Capacity returns the worker's capacity in cores.
func (m *WorkerMeter) Capacity() float64 { return m.capacity }

func critIndex(c function.Criticality) int {
	i := int(c)
	if i < 0 || i >= numCrit {
		return numCrit - 1
	}
	return i
}

// tenantCost holds one tenant's prebuilt cost counters so hot-path
// attribution is a map lookup plus a field add — no allocation.
type tenantCost struct {
	exec  *stats.Counter // core-seconds of acked execution
	queue *stats.Counter // seconds spent queued before dispatch
	waste *stats.Counter // core-seconds burned by failed attempts
}

// Accountant owns the fleet's worker meters and aggregates them into
// windowed utilization timelines (per region, per criticality, fleet)
// plus per-tenant cost counters, all registered in the platform's metric
// registry so they flow to /metrics, /utilization and xfaas-inspect.
type Accountant struct {
	window   time.Duration
	coreMIPS float64
	created  sim.Time

	meters      []*WorkerMeter
	regionNames []string
	regionCap   []float64 // cores per region
	totalCap    float64   // cores fleet-wide

	fleetSeries  *stats.TimeSeries
	regionSeries []*stats.TimeSeries
	critSeries   [numCrit]*stats.TimeSeries

	tenants     map[string]*tenantCost
	tenantExec  *stats.CounterVec
	tenantQueue *stats.CounterVec
	tenantWaste *stats.CounterVec

	prevBusyRegion []float64
	prevBusyCrit   [numCrit]float64

	scratchRegion []float64
}

// NewAccountant creates the accounting hub for a platform with the given
// region names. Worker meters are added with NewMeter as workers are
// built; window is the utilization timeline resolution.
func NewAccountant(reg *stats.Registry, regionNames []string, coreMIPS float64, window time.Duration, now sim.Time) *Accountant {
	a := &Accountant{
		window:         window,
		coreMIPS:       coreMIPS,
		created:        now,
		regionNames:    regionNames,
		regionCap:      make([]float64, len(regionNames)),
		tenants:        map[string]*tenantCost{},
		prevBusyRegion: make([]float64, len(regionNames)),
		scratchRegion:  make([]float64, len(regionNames)),
	}
	a.fleetSeries = reg.Series("utilization_fleet", window, stats.ModeMean)
	regionVec := reg.SeriesVec("utilization_region", window, stats.ModeMean, "region")
	a.regionSeries = make([]*stats.TimeSeries, len(regionNames))
	for i, name := range regionNames {
		a.regionSeries[i] = regionVec.With(name)
	}
	critVec := reg.SeriesVec("utilization_crit", window, stats.ModeMean, "crit")
	for i := 0; i < numCrit; i++ {
		a.critSeries[i] = critVec.With(function.Criticality(i).String())
	}
	a.tenantExec = reg.CounterVec("utilization_tenant_exec_core_seconds", "team")
	a.tenantQueue = reg.CounterVec("utilization_tenant_queue_seconds", "team")
	a.tenantWaste = reg.CounterVec("utilization_tenant_waste_core_seconds", "team")
	return a
}

// NewMeter registers one worker's meter: a worker with cpuMIPS total
// compute across cpuMIPS/coreMIPS cores in the given region.
func (a *Accountant) NewMeter(region int, cpuMIPS, coreMIPS float64, now sim.Time) *WorkerMeter {
	m := &WorkerMeter{
		acct:     a,
		region:   region,
		capacity: cpuMIPS / coreMIPS,
		coreMIPS: coreMIPS,
		created:  now,
		last:     now,
	}
	a.meters = append(a.meters, m)
	a.regionCap[region] += m.capacity
	a.totalCap += m.capacity
	return m
}

// tenant returns (creating on first use) a team's cost handle.
func (a *Accountant) tenant(team string) *tenantCost {
	t, ok := a.tenants[team]
	if !ok {
		t = &tenantCost{
			exec:  a.tenantExec.With(team),
			queue: a.tenantQueue.With(team),
			waste: a.tenantWaste.With(team),
		}
		a.tenants[team] = t
	}
	return t
}

// OnExecuted attributes a successfully completed call's cost to its
// tenant: CPUWorkM/coreMIPS core-seconds of execution and the last
// attempt's queue wait in seconds.
func (a *Accountant) OnExecuted(c *function.Call) {
	if a == nil {
		return
	}
	t := a.tenant(c.Spec.Team)
	t.exec.Add(c.CPUWorkM / a.coreMIPS)
	if q := (c.DispatchAt - c.QueuedAt).Seconds(); q > 0 {
		t.queue.Add(q)
	}
}

// Tick closes the utilization window ending at now: it advances every
// meter and records each aggregate's window-mean utilization into its
// timeline. Called from the platform's window ticker.
func (a *Accountant) Tick(now sim.Time) {
	var busyCrit [numCrit]float64
	busyRegion := a.scratchRegion
	clear(busyRegion)
	for _, m := range a.meters {
		m.advanceTo(now)
		for i, b := range m.busy {
			busyCrit[i] += b
			busyRegion[m.region] += b
		}
	}
	at := now - sim.Time(a.window) // the closed window's start bin
	winSecs := a.window.Seconds()
	var fleetBusy, prevFleet float64
	for i, b := range busyCrit {
		fleetBusy += b
		prevFleet += a.prevBusyCrit[i]
		if a.totalCap > 0 {
			a.critSeries[i].Record(at, (b-a.prevBusyCrit[i])/(a.totalCap*winSecs))
		}
		a.prevBusyCrit[i] = b
	}
	if a.totalCap > 0 {
		a.fleetSeries.Record(at, (fleetBusy-prevFleet)/(a.totalCap*winSecs))
	}
	for i, b := range busyRegion {
		if a.regionCap[i] > 0 {
			a.regionSeries[i].Record(at, (b-a.prevBusyRegion[i])/(a.regionCap[i]*winSecs))
		}
		a.prevBusyRegion[i] = b
	}
}

// Meters returns the registered worker meters (for the closure probe).
func (a *Accountant) Meters() []*WorkerMeter {
	if a == nil {
		return nil
	}
	return a.meters
}

// RegionUtil is one region's row in a utilization snapshot.
type RegionUtil struct {
	Region        string  `json:"region"`
	CapacityCores float64 `json:"capacity_cores"`
	BusyCoreSecs  float64 `json:"busy_core_seconds"`
	Utilization   float64 `json:"utilization"`
}

// CritUtil is one criticality class's share of fleet capacity.
type CritUtil struct {
	Crit         string  `json:"crit"`
	BusyCoreSecs float64 `json:"busy_core_seconds"`
	ShareOfFleet float64 `json:"share_of_fleet"`
}

// TenantCost is one tenant's attributed cost.
type TenantCost struct {
	Team              string  `json:"team"`
	ExecCoreSecs      float64 `json:"exec_core_seconds"`
	QueueSecs         float64 `json:"queue_seconds"`
	RetryWasteCoreSec float64 `json:"retry_waste_core_seconds"`
}

// UtilizationSnapshot is the cumulative accounting state at one instant,
// served by GET /utilization and the xfaas-inspect -utilization table.
type UtilizationSnapshot struct {
	NowSecs       float64      `json:"now_secs"`
	WindowSecs    float64      `json:"window_secs"`
	CapacityCores float64      `json:"capacity_cores"`
	BusyCoreSecs  float64      `json:"busy_core_seconds"`
	IdleCoreSecs  float64      `json:"idle_core_seconds"`
	Utilization   float64      `json:"utilization"`
	Regions       []RegionUtil `json:"regions"`
	Criticalities []CritUtil   `json:"criticalities"`
	Tenants       []TenantCost `json:"tenants"`
}

// Snapshot advances every meter to now and returns the cumulative
// utilization and cost-attribution state.
func (a *Accountant) Snapshot(now sim.Time) UtilizationSnapshot {
	if a == nil {
		return UtilizationSnapshot{}
	}
	s := UtilizationSnapshot{
		NowSecs:       now.Seconds(),
		WindowSecs:    a.window.Seconds(),
		CapacityCores: a.totalCap,
	}
	var busyCrit [numCrit]float64
	busyRegion := make([]float64, len(a.regionNames))
	for _, m := range a.meters {
		m.advanceTo(now)
		for i, b := range m.busy {
			busyCrit[i] += b
			busyRegion[m.region] += b
		}
		s.IdleCoreSecs += m.idle
	}
	elapsed := (now - a.created).Seconds()
	for _, b := range busyCrit {
		s.BusyCoreSecs += b
	}
	if denom := a.totalCap * elapsed; denom > 0 {
		s.Utilization = s.BusyCoreSecs / denom
	}
	for i, name := range a.regionNames {
		r := RegionUtil{Region: name, CapacityCores: a.regionCap[i], BusyCoreSecs: busyRegion[i]}
		if denom := a.regionCap[i] * elapsed; denom > 0 {
			r.Utilization = busyRegion[i] / denom
		}
		s.Regions = append(s.Regions, r)
	}
	for i, b := range busyCrit {
		c := CritUtil{Crit: function.Criticality(i).String(), BusyCoreSecs: b}
		if s.BusyCoreSecs > 0 {
			c.ShareOfFleet = b / s.BusyCoreSecs
		}
		s.Criticalities = append(s.Criticalities, c)
	}
	teams := make([]string, 0, len(a.tenants))
	for team := range a.tenants {
		teams = append(teams, team)
	}
	sort.Strings(teams)
	for _, team := range teams {
		t := a.tenants[team]
		s.Tenants = append(s.Tenants, TenantCost{
			Team:              team,
			ExecCoreSecs:      t.exec.Value(),
			QueueSecs:         t.queue.Value(),
			RetryWasteCoreSec: t.waste.Value(),
		})
	}
	return s
}

// ClosureTolerance returns the float-accumulation tolerance for a meter's
// closure check after capSecs = capacity × elapsed core-seconds: the
// integration error grows like eps × capSecs, so 1e-7 × (1 + capSecs)
// leaves ~1000× headroom while still catching any real leak.
func ClosureTolerance(capSecs float64) float64 {
	return 1e-7 * (1 + capSecs)
}
