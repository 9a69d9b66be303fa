package trace

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"xfaas/internal/cluster"
	"xfaas/internal/sim"
)

// tracesFromBytes decodes arbitrary fuzz input into synthetic call
// traces: each 4-byte chunk is one event (new-trace marker, kind,
// time delta, arg). The decoder imposes no lifecycle ordering at all —
// the exporter and breakdown must tolerate any event sequence, because
// chaos runs produce out-of-order and truncated histories.
func tracesFromBytes(data []byte) []*CallTrace {
	var out []*CallTrace
	var cur *CallTrace
	var at sim.Time
	id := uint64(1)
	for i := 0; i+3 < len(data); i += 4 {
		if cur == nil || data[i]%7 == 0 {
			cur = &CallTrace{
				ID:       id,
				Func:     "fuzz-fn",
				Region:   cluster.RegionID(data[i+1] % 8),
				SubmitAt: at,
			}
			id++
			out = append(out, cur)
		}
		k := Kind(data[i+1] % uint8(KindRelease)) // stored kinds only
		at += sim.Time(int64(data[i+2])) * sim.Time(time.Millisecond)
		cur.Events = append(cur.Events, Event{At: at, Kind: k, Arg: int64(data[i+3]) - 100})
		if k == KindAck || k == KindDeadLetter || k == KindDropped {
			cur.Done = true
			cur.EndAt = at
			cur.Outcome = k
			cur = nil
		}
	}
	return out
}

// FuzzWriteChrome asserts the Chrome trace exporter never panics and
// always emits well-formed JSON, for any event history — including ones
// no legal run produces. Breakdown and Render ride along under the same
// never-panic contract.
func FuzzWriteChrome(f *testing.F) {
	// A legal-looking happy path: submit, route, enqueue, lease,
	// scheduled, dispatch, exec, ack.
	f.Add([]byte{1, 0, 1, 100, 1, 1, 2, 100, 1, 2, 3, 100, 1, 3, 1, 101,
		1, 5, 4, 100, 1, 9, 1, 100, 1, 10, 2, 100, 1, 11, 50, 100, 1, 18, 0, 100})
	// A retry loop and a dead-letter.
	f.Add([]byte{1, 3, 1, 100, 1, 16, 1, 100, 1, 17, 9, 100, 1, 3, 1, 102, 1, 19, 0, 103})
	// Events with zero time deltas and repeated kinds.
	f.Add([]byte{1, 10, 0, 0, 1, 10, 0, 0, 1, 10, 0, 255})
	f.Add([]byte{0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		traces := tracesFromBytes(data)
		var buf bytes.Buffer
		if err := WriteChrome(&buf, traces); err != nil {
			t.Fatalf("WriteChrome errored on in-memory buffer: %v", err)
		}
		var doc struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatalf("exporter emitted invalid JSON: %v\n%s", err, buf.Bytes())
		}
		if doc.TraceEvents == nil {
			t.Fatal("traceEvents key missing (viewer requires an array, even empty)")
		}
		for _, tr := range traces {
			tr.Breakdown()
			_ = tr.Render()
		}
	})
}
