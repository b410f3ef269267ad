package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside it.
// Start and end are offsets from the recorder's epoch; parent indexes
// the enclosing span (-1 for a root); req identifies the request the
// span served (-1 when the span belongs to no single request).
type span struct {
	name       string
	start, end time.Duration
	parent     int
	req        int64
}

// recorder keeps a traced run's spans in memory until the run ends.
// The wire workload records from two goroutines (the client loop and
// the server's audit hook), so every access is serialized; cur is the
// open span that spans added from the other goroutine nest under.
// Calls too frequent and too short to be worth a span each are tallied
// instead: a count and a total time per name.
type recorder struct {
	mu      sync.Mutex
	epoch   time.Time
	spans   []span
	cur     int
	tallies map[string]*tally
}

// tally aggregates untraced calls of one name.
type tally struct {
	count int
	total time.Duration
}

func newRecorder(capacity int) *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, capacity), cur: -1, tallies: map[string]*tally{}}
}

// now is the offset from the recorder's epoch.
func (r *recorder) now() time.Duration { return time.Since(r.epoch) }

// begin opens a span under parent and returns its index.
func (r *recorder) begin(name string, parent int, req int64) int {
	now := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, start: now, parent: parent, req: req})
	return len(r.spans) - 1
}

// end closes span i.
func (r *recorder) end(i int) {
	now := r.now()
	r.mu.Lock()
	r.spans[i].end = now
	r.mu.Unlock()
}

// enter opens a root span and makes it the parent of spans added from
// other goroutines until leave.
func (r *recorder) enter(name string, req int64) int {
	i := r.begin(name, -1, req)
	r.mu.Lock()
	r.cur = i
	r.mu.Unlock()
	return i
}

// leave closes the current parent span.
func (r *recorder) leave(i int) {
	r.end(i)
	r.mu.Lock()
	r.cur = -1
	r.mu.Unlock()
}

// current returns the open parent span and its request, or -1 when no
// parent is open.
func (r *recorder) current() (parent int, req int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cur < 0 {
		return -1, -1
	}
	return r.cur, r.spans[r.cur].req
}

// add appends a finished span.
func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// tally counts one untraced call of name that took d.
func (r *recorder) tally(name string, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.tallies[name]
	if t == nil {
		t = &tally{}
		r.tallies[name] = t
	}
	t.count++
	t.total += d
}

// duration returns span i's length.
func (r *recorder) duration(i int) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[i].end - r.spans[i].start
}

// spanStats summarizes every span of one name.
type spanStats struct {
	count     int
	total     time.Duration // summed durations
	self      time.Duration // summed durations minus direct children
	durations []int64       // each span's duration in ns
}

// pct returns the q-quantile duration of the name's spans.
func (s *spanStats) pct(q float64) time.Duration {
	ds := slices.Clone(s.durations)
	slices.Sort(ds)
	return time.Duration(percentile(ds, q))
}

// summarize folds the spans and tallies into per-name statistics,
// computing each span's self time as its duration minus its direct
// children's. Tallied calls count toward count, total and self.
func (r *recorder) summarize() map[string]*spanStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := map[string]*spanStats{}
	for i, s := range r.spans {
		st := out[s.name]
		if st == nil {
			st = &spanStats{}
			out[s.name] = st
		}
		d := s.end - s.start
		st.count++
		st.total += d
		st.self += d - child[i]
		st.durations = append(st.durations, int64(d))
	}
	for name, t := range r.tallies {
		st := out[name]
		if st == nil {
			st = &spanStats{}
			out[name] = st
		}
		st.count += t.count
		st.total += t.total
		st.self += t.total
	}
	return out
}

// stat returns the named statistics, or an empty record.
func stat(m map[string]*spanStats, name string) *spanStats {
	if s, ok := m[name]; ok {
		return s
	}
	return &spanStats{}
}

// write saves the spans as CSV (name, start_ns, end_ns, parent, req);
// tallies are not written.
func (r *recorder) write(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	if _, err := fmt.Fprintln(w, "name,start_ns,end_ns,parent,req"); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if _, err := fmt.Fprintf(w, "%s,%d,%d,%d,%d\n", s.name, s.start, s.end, s.parent, s.req); err != nil {
			return err
		}
	}
	return w.Flush()
}
