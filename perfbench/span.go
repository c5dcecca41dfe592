package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// A span is one timed call into a layer, recorded from the benchmark's
// side of the call. Spans of one request share the same parent.
type span struct {
	name       string
	id, parent uint64
	start, end int64 // ns since the tracer's epoch
}

// tracer keeps spans in memory until the run ends. Each goroutine
// records into its own track, so recording takes no lock; a nil
// *tracer or *track records nothing, which is the untraced mode.
type tracer struct {
	epoch  time.Time
	mu     sync.Mutex
	tracks []*track
}

type track struct {
	t     *tracer
	base  uint64 // track number in the high bits of its span ids
	next  uint64
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// track returns a new span track for one goroutine.
func (t *tracer) track() *track {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	k := &track{t: t, base: uint64(len(t.tracks)+1) << 40, spans: make([]span, 0, 1<<12)}
	t.tracks = append(t.tracks, k)
	return k
}

// begin opens a span and returns its id and start time. The span is
// stored by end; a span that is never ended is not recorded.
func (k *track) begin() (id uint64, start time.Time) {
	start = time.Now()
	if k == nil {
		return 0, start
	}
	k.next++
	return k.base | k.next, start
}

// end records the span opened by begin and returns its duration.
func (k *track) end(name string, id, parent uint64, start time.Time) time.Duration {
	now := time.Now()
	if k != nil {
		k.spans = append(k.spans, span{
			name: name, id: id, parent: parent,
			start: int64(start.Sub(k.t.epoch)), end: int64(now.Sub(k.t.epoch)),
		})
	}
	return now.Sub(start)
}

// timed runs fn as one span and returns its duration.
func (k *track) timed(name string, parent uint64, fn func(id uint64)) time.Duration {
	id, t0 := k.begin()
	fn(id)
	return k.end(name, id, parent, t0)
}

func (t *tracer) spans() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var all []span
	for _, k := range t.tracks {
		all = append(all, k.spans...)
	}
	return all
}

// layerOf maps a span name to its layer: the text before the first dot
// ("serve.Client.PredictBatch" belongs to serve).
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns, per layer, the number of spans and the summed self
// time: a span's duration minus the time its child spans cover. A
// parent whose children ran on several goroutines at once can have
// more child time than duration; its self time is then zero.
func selfTimes(spans []span) map[string]*layerTime {
	child := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		if s.parent != 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := map[string]*layerTime{}
	for _, s := range spans {
		lt := out[layerOf(s.name)]
		if lt == nil {
			lt = &layerTime{}
			out[layerOf(s.name)] = lt
		}
		lt.spans++
		lt.total += s.end - s.start
		self := s.end - s.start - child[s.id]
		if self < 0 {
			self = 0
		}
		lt.self += self
	}
	return out
}

type layerTime struct {
	spans       int
	total, self int64
}

// under returns the spans named root and all their descendants.
func under(spans []span, root string) []span {
	parent := make(map[uint64]uint64, len(spans))
	for _, s := range spans {
		parent[s.id] = s.parent
	}
	in := map[uint64]bool{}
	for _, s := range spans {
		if s.name == root {
			in[s.id] = true
		}
	}
	var out []span
	for _, s := range spans {
		for id := s.id; id != 0; id = parent[id] {
			if in[id] {
				out = append(out, s)
				break
			}
		}
	}
	return out
}

// writeSelfTable prints the self-time table of spans.
func writeSelfTable(w io.Writer, title string, spans []span) {
	lt := selfTimes(spans)
	names := make([]string, 0, len(lt))
	var sum int64
	for n, v := range lt {
		names = append(names, n)
		sum += v.self
	}
	sort.Slice(names, func(i, j int) bool { return lt[names[i]].self > lt[names[j]].self })
	fmt.Fprintf(w, "self time by layer, %s (%d spans)\n", title, len(spans))
	fmt.Fprintf(w, "  %-10s %9s %12s %12s %7s\n", "layer", "spans", "total_ms", "self_ms", "self_%")
	for _, n := range names {
		v := lt[n]
		share := 0.0
		if sum > 0 {
			share = 100 * float64(v.self) / float64(sum)
		}
		fmt.Fprintf(w, "  %-10s %9d %12.3f %12.3f %7.2f\n", n, v.spans, float64(v.total)/1e6, float64(v.self)/1e6, share)
	}
}

// dumpSpans writes every span as one CSV line to path.
func dumpSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	bw := bufio.NewWriterSize(f, 1<<16)
	fmt.Fprintln(bw, "name,id,parent,start_ns,end_ns")
	for _, s := range spans {
		fmt.Fprintf(bw, "%s,%d,%d,%d,%d\n", s.name, s.id, s.parent, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
