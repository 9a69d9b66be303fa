// Package writeonly holds one case per rule of the root package's
// write-only field finder. Every field is read except rim.hits, the three
// sink fields and key's two: the finder must report exactly those.
package writeonly

import (
	"encoding/json"
	"reflect"
	"sync"

	"xfaas/internal/stats"
)

// A method call writes only a value stats.Counter or stats.Gauge, and
// only a method that returns nothing: store and gauge are read (the
// store's map and a registry see them), reads is read through Value.
type store struct{ m map[string]int }

func (s *store) Set(k string, v int) { s.m[k] = v }
func (s *store) Get(k string) int    { return s.m[k] }

type rim struct {
	store store
	gauge *stats.Gauge
	hits  stats.Counter
	reads stats.Counter
}

func (r *rim) observe() float64 {
	r.store.Set("k", 1)
	r.gauge.Set(2)
	r.hits.Inc()
	r.reads.Inc()
	return r.reads.Value()
}

// newVec's literal writes items through vec instantiated with newVec's
// own M, and all reads it through the receiver's: only the field's origin
// joins the two. (A field whose type does not mention M is not
// instantiated.)
type vec[M any] struct{ items []M }

func newVec[M any](m M) *vec[M] { return &vec[M]{items: []M{m}} }
func (v *vec[M]) all() []M      { return v.items }

// encoding/json reads the tagged field, and promotion the embedded one.
type reply struct {
	Count int `json:"count"`
}

type inner struct{ n int }

func (i inner) get() int { return i.n }

type outer struct{ inner }

func encode(n int) ([]byte, error) { return json.Marshal(reply{Count: n}) }
func wrap(n int) outer             { return outer{inner: inner{n: n}} }

// Reflection reads Routed by the name in families.
type counters struct{ Routed float64 }

var families = []string{"Routed"}

func fill(c *counters) { c.Routed = 3 }
func export(c counters) float64 {
	return reflect.ValueOf(c).FieldByName(families[0]).Float()
}

// Index assignment, delete and self-append only write.
type sink struct {
	byKey map[string]int
	gone  map[string]bool
	log   []int
}

func (s *sink) put(k string, v int) {
	s.byKey[k] = v
	delete(s.gone, k)
	s.log = append(s.log, v)
}

// An unkeyed literal writes every field; as a map key it is compared, a
// read the finder cannot see.
type key struct{ a, b int }

var seen sync.Map

func remember(a, b int) { seen.Store(key{a, b}, true) }
