package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded from
// the benchmark's side of each call, kept in memory, and written out only
// when the run ends.
type span struct {
	Name   string `json:"name"`
	Stmt   int    `json:"stmt"`   // operation the span belongs to; spans of one operation share it
	Parent int    `json:"parent"` // index of the causing span, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog collects one goroutine's spans; times are nanoseconds since epoch,
// which the logs of one run share.
type spanLog struct {
	epoch time.Time
	spans []span
}

func newSpanLog(epoch time.Time) *spanLog { return &spanLog{epoch: epoch} }

// begin opens a span and returns its index; end closes it.
func (l *spanLog) begin(name string, stmt, parent int) int {
	l.spans = append(l.spans, span{Name: name, Stmt: stmt, Parent: parent, Start: int64(time.Since(l.epoch))})
	return len(l.spans) - 1
}

func (l *spanLog) end(i int) time.Duration {
	l.spans[i].End = int64(time.Since(l.epoch))
	return time.Duration(l.spans[i].End - l.spans[i].Start)
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its direct children cover. Children may overlap each other
// or stick out of the parent; covered time is counted once and only inside
// the parent.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered, upTo := int64(0), s.Start
		for _, k := range ks {
			lo, hi := max(spans[k].Start, upTo), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self[i] -= covered
	}
	return self
}

// selfByName sums self time per span name.
func selfByName(spans []span) map[string]int64 {
	out := make(map[string]int64)
	for i, t := range selfTimes(spans) {
		out[spans[i].Name] += t
	}
	return out
}

func writeSpans(path string, logs ...*spanLog) error {
	var all []span
	for _, l := range logs {
		if l == nil {
			continue
		}
		// Parent indexes are per log; shift them into the joined slice.
		off := len(all)
		for _, s := range l.spans {
			if s.Parent >= 0 {
				s.Parent += off
			}
			all = append(all, s)
		}
	}
	data, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
