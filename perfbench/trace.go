package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call, or one run of calls, into a layer: its name, when
// it started and ended, the span that caused it, and how many operations it
// covered.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int    `json:"count"`
}

// tracer keeps spans in memory until the run ends. Each goroutine records
// into its own lane, so recording takes no lock.
type tracer struct {
	t0    time.Time
	lanes []*lane
}

type lane struct {
	t0    time.Time
	id    uint64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// lane adds a recording lane for one goroutine. Call it before that
// goroutine starts; lanes are not created concurrently.
func (t *tracer) lane() *lane {
	l := &lane{t0: t.t0, id: uint64(len(t.lanes)+1) << 40, spans: make([]span, 0, 1024)}
	t.lanes = append(t.lanes, l)
	return l
}

// open starts a span now and returns its handle for close and for the
// children's parent. The methods of a nil lane record nothing, so untraced
// passes run the same code.
func (l *lane) open(name string, parent uint64) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{
		Name:   name,
		ID:     l.id | uint64(len(l.spans)+1),
		Parent: parent,
		Start:  int64(time.Since(l.t0)),
	})
	return len(l.spans) - 1
}

// close ends span h now; count is the number of operations it covered.
func (l *lane) close(h, count int) {
	if l == nil {
		return
	}
	l.spans[h].End = int64(time.Since(l.t0))
	l.spans[h].Count = count
}

// idOf is the span ID children of span h name as their parent.
func (l *lane) idOf(h int) uint64 {
	if l == nil {
		return 0
	}
	return l.spans[h].ID
}

func (t *tracer) len() int {
	n := 0
	for _, l := range t.lanes {
		n += len(l.spans)
	}
	return n
}

// self sums the self time of every span with the name: its duration minus
// the part its child spans cover. Children never overlap within a lane.
func (t *tracer) self(name string) (time.Duration, int) {
	var d time.Duration
	n := 0
	for _, l := range t.lanes {
		ids := map[uint64]bool{}
		for _, s := range l.spans {
			if s.Name == name {
				d += time.Duration(s.End - s.Start)
				n += s.Count
				ids[s.ID] = true
			}
		}
		for _, s := range l.spans {
			if ids[s.Parent] {
				d -= time.Duration(s.End - s.Start)
			}
		}
	}
	return d, n
}

// perOp returns the mean self time per operation, in nanoseconds, of the
// spans with the name; 0 when there were none.
func (t *tracer) perOp(name string) float64 {
	d, n := t.self(name)
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

// write stores the trace as JSON lines, the environment first, under
// dir/trace, and returns the file's path.
func (t *tracer) write(dir, workload string, seed uint64, e env) (string, error) {
	if t == nil {
		return "", fmt.Errorf("traced run recorded no trace")
	}
	dir = filepath.Join(dir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(map[string]any{"workload": workload, "seed": seed, "env": e})
	for _, l := range t.lanes {
		for i := 0; i < len(l.spans) && err == nil; i++ {
			err = enc.Encode(&l.spans[i])
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("writing trace %s: %w", path, err)
	}
	return path, nil
}
