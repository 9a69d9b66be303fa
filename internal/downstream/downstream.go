// Package downstream models the services XFaaS functions call into —
// TAO-like databases, write-through caches, key-value stores (paper
// §4.6.3, §5.5). A Service has a healthy capacity in requests per second;
// offered load beyond capacity produces back-pressure exceptions, and
// scripted incidents (a buggy release, a capacity cut) reproduce the
// production outages of §5.5.
package downstream

import (
	"errors"
	"fmt"
	"time"

	"xfaas/internal/rng"
	"xfaas/internal/sim"
	"xfaas/internal/stats"
)

// ErrBackpressure is the exception an overloaded service throws; callers
// (workers) report it to the congestion manager.
var ErrBackpressure = errors.New("downstream: back-pressure")

// ErrFailure is a non-back-pressure failure (e.g. the buggy KVStore
// release of incident 1); the caller will typically retry, amplifying
// load.
var ErrFailure = errors.New("downstream: request failed")

// Service is one downstream dependency.
type Service struct {
	Name   string
	engine *sim.Engine
	src    *rng.Source

	// capacity is the healthy sustained RPS.
	capacity float64
	// bugRate is the scripted fraction of requests failing outright.
	bugRate float64
	// load measures offered RPS over a 10-second window.
	load *stats.WindowRate

	Served       stats.Counter
	Failures     stats.Counter
	Backpressure stats.Counter
	// AvailSeries tracks per-minute availability (fraction of requests
	// served) for incident figures.
	AvailSeries *stats.TimeSeries
	LoadSeries  *stats.TimeSeries
}

// NewService returns a service with the given healthy capacity (RPS).
func NewService(engine *sim.Engine, src *rng.Source, name string, capacity float64) *Service {
	if capacity <= 0 {
		panic("downstream: non-positive capacity")
	}
	return &Service{
		Name:        name,
		engine:      engine,
		src:         src,
		capacity:    capacity,
		load:        stats.NewWindowRate(time.Second, 10),
		AvailSeries: stats.NewTimeSeries(time.Minute, stats.ModeMean),
		LoadSeries:  stats.NewTimeSeries(time.Minute, stats.ModeSum),
	}
}

// SetCapacity changes the healthy capacity (scripted incidents).
func (s *Service) SetCapacity(c float64) {
	if c <= 0 {
		panic("downstream: non-positive capacity")
	}
	s.capacity = c
}

// SetBugRate sets the fraction of requests that fail outright regardless
// of load (0 clears the incident).
func (s *Service) SetBugRate(r float64) {
	if r < 0 || r > 1 {
		panic("downstream: bug rate out of [0,1]")
	}
	s.bugRate = r
}

// OfferedRPS returns the measured offered load.
func (s *Service) OfferedRPS() float64 { return s.load.PerSecond(s.engine.Now()) }

// Overload returns offered/capacity (1 = at capacity).
func (s *Service) Overload() float64 { return s.OfferedRPS() / s.capacity }

// Invoke performs one request at the current virtual time. It returns
// nil on success, ErrBackpressure when the service sheds load, or
// ErrFailure for scripted bug failures.
func (s *Service) Invoke() error {
	now := s.engine.Now()
	s.load.Add(now, 1)
	s.LoadSeries.Record(now, 1)
	if s.bugRate > 0 && s.src.Bool(s.bugRate) {
		s.Failures.Inc()
		s.AvailSeries.Record(now, 0)
		return fmt.Errorf("%w: %s", ErrFailure, s.Name)
	}
	if over := s.Overload(); over > 1 {
		// Shed the excess fraction: with offered = o and capacity = c,
		// serve c/o of requests and back-pressure the rest.
		if s.src.Bool(1 - 1/over) {
			s.Backpressure.Inc()
			s.AvailSeries.Record(now, 0)
			return fmt.Errorf("%w: %s overloaded %.2fx", ErrBackpressure, s.Name, over)
		}
	}
	s.Served.Inc()
	s.AvailSeries.Record(now, 1)
	return nil
}

// Availability returns the lifetime served fraction.
func (s *Service) Availability() float64 {
	total := s.Served.Value() + s.Failures.Value() + s.Backpressure.Value()
	if total == 0 {
		return 1
	}
	return s.Served.Value() / total
}

// Registry is a name-indexed set of services.
type Registry struct {
	services map[string]*Service
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{services: make(map[string]*Service)} }

// Add registers a service (replacing any previous one of the same name).
func (r *Registry) Add(s *Service) { r.services[s.Name] = s }

// Get returns the named service.
func (r *Registry) Get(name string) (*Service, bool) {
	s, ok := r.services[name]
	return s, ok
}

// RIMName implements rim.Source.
func (s *Service) RIMName() string { return s.Name }

// RIMUtilization implements rim.Source: offered load over healthy
// capacity (1.0 = at capacity).
func (s *Service) RIMUtilization() float64 { return s.Overload() }
