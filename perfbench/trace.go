package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans are
// recorded only by the benchmark's own code, around its calls into
// each layer's public functions; the program under test is not
// instrumented.
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span; -1 for a root
	Self   int64  `json:"self_ns"`
}

// recorder keeps the spans of a traced run in memory; dump writes
// them out when the run ends. A nil recorder, or one switched off,
// records nothing, so untraced code paths pay one branch per span.
//
// Requests in a traced run are sent one at a time, so a span's parent
// is unambiguous: it is the smallest span of the same request whose
// interval contains it, whichever goroutine recorded either of them.
type recorder struct {
	t0  time.Time
	on  atomic.Bool
	req atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// active reports whether spans are being recorded.
func (r *recorder) active() bool { return r != nil && r.on.Load() }

// nextRequest starts a new request: spans opened from now on carry
// its id.
func (r *recorder) nextRequest() {
	if r != nil {
		r.req.Add(1)
	}
}

// openSpan is a span that has started but not ended.
type openSpan struct {
	r     *recorder
	name  string
	req   int64
	start time.Duration
}

// begin opens a span; end (or endAs) records it.
func (r *recorder) begin(name string) openSpan {
	if !r.active() {
		return openSpan{}
	}
	return openSpan{r: r, name: name, req: r.req.Load(), start: time.Since(r.t0)}
}

func (o openSpan) end() { o.endAs(o.name) }

// endAs records the span under a name chosen once the call returned
// (a cache hit and a miss are different spans of the same call).
func (o openSpan) endAs(name string) {
	if o.r == nil {
		return
	}
	end := time.Since(o.r.t0)
	o.r.mu.Lock()
	o.r.spans = append(o.r.spans, span{Name: name, Req: o.req, Start: int64(o.start), End: int64(end), Parent: -1})
	o.r.mu.Unlock()
}

// finalize links every span to its parent by interval containment
// within its request and computes self times: a span's duration minus
// the part of its interval that its children cover.
func (r *recorder) finalize() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	sp := r.spans
	order := make([]int, len(sp))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		x, y := sp[order[a]], sp[order[b]]
		if x.Req != y.Req {
			return x.Req < y.Req
		}
		if x.Start != y.Start {
			return x.Start < y.Start
		}
		return x.End > y.End
	})
	children := make(map[int][]int)
	var stack []int
	for k, i := range order {
		if k > 0 && sp[order[k-1]].Req != sp[i].Req {
			stack = stack[:0]
		}
		for len(stack) > 0 && sp[stack[len(stack)-1]].End < sp[i].End {
			stack = stack[:len(stack)-1]
		}
		sp[i].Parent = -1
		if len(stack) > 0 {
			p := stack[len(stack)-1]
			sp[i].Parent = p
			children[p] = append(children[p], i)
		}
		stack = append(stack, i)
	}
	for i := range sp {
		sp[i].Self = sp[i].End - sp[i].Start - covered(sp, children[i])
	}
	return sp
}

// covered is the length of the union of the children's intervals.
// Children are listed in start order, and each lies inside its
// parent, so one sweep merges them.
func covered(sp []span, kids []int) int64 {
	var total, curStart, curEnd int64
	open := false
	for _, k := range kids {
		s, e := sp[k].Start, sp[k].End
		if open && s <= curEnd {
			if e > curEnd {
				curEnd = e
			}
			continue
		}
		if open {
			total += curEnd - curStart
		}
		curStart, curEnd, open = s, e, true
	}
	if open {
		total += curEnd - curStart
	}
	return total
}

// spanSet groups finalized spans by name.
type spanSet map[string][]span

func groupSpans(sp []span) spanSet {
	out := spanSet{}
	for _, s := range sp {
		out[s.Name] = append(out[s.Name], s)
	}
	return out
}

func (s spanSet) count(name string) int { return len(s[name]) }

func (s spanSet) total(name string) time.Duration {
	var t int64
	for _, x := range s[name] {
		t += x.End - x.Start
	}
	return time.Duration(t)
}

// mean duration of the named spans (0 when there are none).
func (s spanSet) mean(name string) time.Duration {
	if n := s.count(name); n > 0 {
		return s.total(name) / time.Duration(n)
	}
	return 0
}

// median duration, or median self time with self set.
func (s spanSet) median(name string, self bool) time.Duration {
	ds := make([]time.Duration, 0, len(s[name]))
	for _, x := range s[name] {
		if self {
			ds = append(ds, time.Duration(x.Self))
		} else {
			ds = append(ds, time.Duration(x.End-x.Start))
		}
	}
	return median(ds)
}

// dump writes the spans as JSON lines under dir.
func dump(dir, file string, sp []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range sp {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("closing %s: %w", path, err)
	}
	return path, nil
}
