package main

import (
	"encoding/json"
	"slices"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans live in memory for the whole
// traced run and are written once, at exit, as Chrome trace events.
type span struct {
	name string
	// start and end are nanoseconds since the log's base instant.
	start, end int64
	// parent indexes the enclosing span in the log; -1 marks a root.
	parent int
	// epoch is the dispatcher epoch the span belongs to: the trace id every
	// span of one epoch shares.
	epoch int
	// track is the Chrome trace thread the span is drawn on.
	track int
}

func (s span) dur() int64 { return s.end - s.start }

// spanLog collects spans from the replay goroutine and from the shard
// planners the dispatcher runs concurrently.
type spanLog struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now()} }

// begin opens a span and returns its index for end.
func (l *spanLog) begin(name string, parent, epoch, track int) int {
	now := time.Since(l.base).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{name: name, start: now, end: now, parent: parent, epoch: epoch, track: track})
	return len(l.spans) - 1
}

// end closes span id and returns its duration.
func (l *spanLog) end(id int) time.Duration {
	now := time.Since(l.base).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id].end = now
	return time.Duration(now - l.spans[id].start)
}

// interval is a half-open [lo, hi) range of nanoseconds.
type interval struct{ lo, hi int64 }

// unionLen returns the length of the union of the intervals. Sibling spans
// overlap when shards plan concurrently, so summing their durations would
// count the shared wall time twice.
func unionLen(iv []interval) int64 {
	slices.SortFunc(iv, func(a, b interval) int {
		switch {
		case a.lo < b.lo:
			return -1
		case a.lo > b.lo:
			return 1
		}
		return 0
	})
	var total int64
	curLo, curHi := int64(0), int64(0)
	open := false
	for _, v := range iv {
		if v.hi <= v.lo {
			continue
		}
		if open && v.lo <= curHi {
			curHi = max(curHi, v.hi)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = v.lo, v.hi, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// selfTimes returns, for every span, its duration minus the part of its
// interval covered by the union of its children. A parent's self time plus
// that union therefore always equals the parent's duration, however much the
// children overlap one another.
func selfTimes(spans []span) (self, covered []int64) {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self = make([]int64, len(spans))
	covered = make([]int64, len(spans))
	var iv []interval
	for i, s := range spans {
		iv = iv[:0]
		for _, c := range children[i] {
			iv = append(iv, interval{max(spans[c].start, s.start), min(spans[c].end, s.end)})
		}
		covered[i] = unionLen(iv)
		self[i] = s.dur() - covered[i]
	}
	return self, covered
}

// chromeTrace renders the log in the Chrome trace-event format (load it in
// chrome://tracing or Perfetto). Each event carries its epoch, its parent's
// index and its self time in args.
func (l *spanLog) chromeTrace() ([]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	self, _ := selfTimes(l.spans)
	type args struct {
		Epoch  int     `json:"epoch"`
		ID     int     `json:"id"`
		Parent int     `json:"parent"`
		SelfUS float64 `json:"self_us"`
	}
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		PID  int     `json:"pid"`
		TID  int     `json:"tid"`
		Args args    `json:"args"`
	}
	events := make([]event, len(l.spans))
	for i, s := range l.spans {
		events[i] = event{
			Name: s.name, Ph: "X",
			TS: float64(s.start) / 1e3, Dur: float64(s.dur()) / 1e3,
			PID: 1, TID: s.track,
			Args: args{Epoch: s.epoch, ID: i, Parent: s.parent, SelfUS: float64(self[i]) / 1e3},
		}
	}
	return json.Marshal(struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{events, "ms"})
}
