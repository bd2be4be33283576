package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Times are nanoseconds since
// the recorder was created. Req is the request the call served (0 when no
// request was open) and Parent the span that caused it (0 for a root).
type span struct {
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent"`
	Req    uint32 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps the spans of a traced pass in memory. The benchmark has
// one request in flight at a time, so a single current-request id and
// current-root id stamp every span, whichever goroutine records it.
type recorder struct {
	t0     time.Time
	on     atomic.Bool // spans are recorded only while on (not during set-up)
	nextID atomic.Uint32
	req    atomic.Uint32
	rootID atomic.Uint32

	client *lane // root spans, and everything below them in a library workload
	lanes  []*lane
}

// lane is one chain of synchronous calls: the client's, or one shard's.
// Spans of a lane nest like a call stack; the parent of a span begun on an
// empty lane is the current request's root. The mutex is uncontended in
// every workload here; it keeps a stray background call (a prefetch, say)
// from corrupting the slices.
type lane struct {
	rec   *recorder
	mu    sync.Mutex
	open  []int32 // indexes into spans of the calls in progress
	spans []span
}

func newRecorder() *recorder {
	r := &recorder{t0: time.Now()}
	r.client = r.newLane()
	return r
}

func (r *recorder) newLane() *lane {
	l := &lane{rec: r}
	r.lanes = append(r.lanes, l)
	return l
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// beginRoot opens a new request with a root span on the client lane.
func (r *recorder) beginRoot(name string) int32 {
	if !r.on.Load() {
		return -1
	}
	r.req.Add(1)
	idx := r.client.push(name, true)
	r.rootID.Store(r.client.spans[idx].ID)
	return idx
}

// endRoot closes the request opened by beginRoot.
func (r *recorder) endRoot(idx int32) {
	if idx < 0 {
		return
	}
	r.client.end(idx)
	r.rootID.Store(0)
}

// begin opens a span and returns its handle for end; -1 while recording
// is off.
func (l *lane) begin(name string) int32 {
	if l == nil || !l.rec.on.Load() {
		return -1
	}
	return l.push(name, false)
}

// push records the start of a span. A span that is neither a root nor
// inside a request (parent 0) keeps Req 0 and is left out of the sums.
func (l *lane) push(name string, root bool) int32 {
	now := l.rec.now()
	l.mu.Lock()
	var parent, req uint32
	if !root {
		parent = l.rec.rootID.Load()
		if n := len(l.open); n > 0 {
			parent = l.spans[l.open[n-1]].ID
		}
	}
	if root || parent != 0 {
		req = l.rec.req.Load()
	}
	l.spans = append(l.spans, span{ID: l.rec.nextID.Add(1), Parent: parent, Req: req, Name: name, Start: now})
	idx := int32(len(l.spans) - 1)
	l.open = append(l.open, idx)
	l.mu.Unlock()
	return idx
}

func (l *lane) end(idx int32) {
	if idx < 0 {
		return
	}
	now := l.rec.now()
	l.mu.Lock()
	l.spans[idx].End = now
	for i := len(l.open) - 1; i >= 0; i-- {
		if l.open[i] == idx {
			l.open = append(l.open[:i], l.open[i+1:]...)
			break
		}
	}
	l.mu.Unlock()
}

// all returns every closed span of every lane, ordered by start time.
func (r *recorder) all() []span {
	var out []span
	for _, l := range r.lanes {
		l.mu.Lock()
		for _, s := range l.spans {
			if s.End != 0 {
				out = append(out, s)
			}
		}
		l.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// layerOf maps a span name to the layer it is charged to.
func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "client."):
		return "shard"
	case strings.HasPrefix(name, "engine."), strings.HasPrefix(name, "bvtree."):
		return "bvtree"
	case strings.HasPrefix(name, "store."):
		return "storage"
	case strings.HasPrefix(name, "vfs."):
		return "vfs"
	}
	return "other"
}

// selfTimes splits every request's root interval among the request's
// spans. Each instant belongs to the deepest span open at that instant
// (the latest-started one when spans of two lanes overlap, as under
// scatter-gather), so a span's self time is its duration minus the union
// of its children's intervals, and the self times of one request sum
// exactly to its root's duration. Time a span spends outside its
// request's root interval is dropped. The result is indexed like spans.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	var byReq []int // span indexes, grouped by request
	for i, s := range spans {
		if s.Req != 0 {
			byReq = append(byReq, i)
		}
	}
	sort.SliceStable(byReq, func(a, b int) bool { return spans[byReq[a]].Req < spans[byReq[b]].Req })
	type event struct {
		t     int64
		start bool
		i     int
	}
	for len(byReq) > 0 {
		n := 1
		for n < len(byReq) && spans[byReq[n]].Req == spans[byReq[0]].Req {
			n++
		}
		group := byReq[:n]
		byReq = byReq[n:]
		if i := group[0]; n == 1 && spans[i].Parent == 0 {
			self[i] = spans[i].End - spans[i].Start // a root with nothing below it
			continue
		}
		idOf := make(map[uint32]int, len(group))
		root := -1
		for _, i := range group {
			idOf[spans[i].ID] = i
			if spans[i].Parent == 0 {
				root = i
			}
		}
		if root < 0 {
			continue
		}
		depth := func(i int) int {
			d := 0
			for spans[i].Parent != 0 {
				p, ok := idOf[spans[i].Parent]
				if !ok {
					break
				}
				i = p
				d++
			}
			return d
		}
		lo, hi := spans[root].Start, spans[root].End
		var evs []event
		depths := make(map[int]int, len(group))
		for _, i := range group {
			s, e := max(spans[i].Start, lo), min(spans[i].End, hi)
			if e <= s {
				continue
			}
			depths[i] = depth(i)
			evs = append(evs, event{s, true, i}, event{e, false, i})
		}
		sort.Slice(evs, func(a, b int) bool {
			if evs[a].t != evs[b].t {
				return evs[a].t < evs[b].t
			}
			return !evs[a].start && evs[b].start // close before open at one instant
		})
		var active []int
		prev := lo
		for _, ev := range evs {
			if ev.t > prev && len(active) > 0 {
				owner := active[0]
				for _, i := range active[1:] {
					if depths[i] > depths[owner] || (depths[i] == depths[owner] && spans[i].Start > spans[owner].Start) {
						owner = i
					}
				}
				self[owner] += ev.t - prev
			}
			prev = ev.t
			if ev.start {
				active = append(active, ev.i)
			} else {
				for k, i := range active {
					if i == ev.i {
						active = append(active[:k], active[k+1:]...)
						break
					}
				}
			}
		}
	}
	return self
}

// nameStat totals the spans that share a name.
type nameStat struct {
	Count  int     `json:"count"`
	DurUs  float64 `json:"dur_us"`
	SelfUs float64 `json:"self_us"`
	durs   []float64
}

// traceSummary is what the traced pass reports and what trace.json opens
// with: per layer the self time, per span name the totals, and the root
// spans' total against which the layers must add up.
type traceSummary struct {
	Workload    string               `json:"workload"`
	Seed        uint64               `json:"seed"`
	Ops         int                  `json:"ops"`
	Spans       int                  `json:"spans_total"`
	Written     int                  `json:"spans_written"`
	RootUs      float64              `json:"root_us_total"`
	LayerSelfUs map[string]float64   `json:"layer_self_us_total"`
	Names       map[string]*nameStat `json:"by_name"`
}

func summarize(spans []span) *traceSummary {
	self := selfTimes(spans)
	sum := &traceSummary{Spans: len(spans), LayerSelfUs: map[string]float64{}, Names: map[string]*nameStat{}}
	for i, s := range spans {
		if s.Req == 0 {
			continue
		}
		dur := float64(s.End-s.Start) / 1e3
		st := sum.Names[s.Name]
		if st == nil {
			st = &nameStat{}
			sum.Names[s.Name] = st
		}
		st.Count++
		st.DurUs += dur
		st.SelfUs += float64(self[i]) / 1e3
		st.durs = append(st.durs, dur)
		sum.LayerSelfUs[layerOf(s.Name)] += float64(self[i]) / 1e3
		if s.Parent == 0 {
			sum.RootUs += dur
		}
	}
	return sum
}

// durUs sums the durations of the spans whose name passes match.
func (t *traceSummary) durUs(match func(name string) bool) float64 {
	var total float64
	for name, st := range t.Names {
		if match(name) {
			total += st.DurUs
		}
	}
	return total
}

// maxSpansWritten bounds trace.json; the summary always covers every span.
const maxSpansWritten = 200_000

// writeTrace writes the summary and the first maxSpansWritten spans.
func writeTrace(path string, sum *traceSummary, spans []span) error {
	if len(spans) > maxSpansWritten {
		spans = spans[:maxSpansWritten]
	}
	sum.Written = len(spans)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		*traceSummary
		SpanList []span `json:"spans"`
	}{sum, spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
