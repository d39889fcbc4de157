package main

import (
	"bufio"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"burtree/internal/atomicfile"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark around its own calls into the library (spans inside the
// library are ROADMAP item 5). Front-end call spans carry the call's
// index in its client's stream; a micro-driver span covers n calls of
// the named function, because a span per 50 ns call would time the
// clock.
type span struct {
	id, parent uint64
	name       string
	start, end int64 // ns since the tracer started
	client     int
	call       int64 // index in the client's stream, -1 outside a front-end call
	n          int   // library calls the span covers
}

// maxSpans bounds the trace held in memory; past it a lane keeps one
// span in sampleEvery.
const (
	maxSpans    = 2_000_000
	sampleEvery = 16
)

// tracer holds spans in memory, one lane per recording goroutine so the
// clients never share a lock, and writes them out when the run ends.
type tracer struct {
	workload string
	t0       time.Time
	lanes    []*lane
}

type lane struct {
	tr      *tracer
	client  int
	spans   []span
	seen    uint64
	limit   int
	nextSeq uint64
}

// newTracer makes a tracer with one lane per client plus one for the
// single-threaded ladder and micro-drivers (the last lane).
func newTracer(workload string, clients int) *tracer {
	tr := &tracer{workload: workload, t0: time.Now()}
	for c := 0; c <= clients; c++ {
		tr.lanes = append(tr.lanes, &lane{tr: tr, client: c, limit: maxSpans / (clients + 1)})
	}
	return tr
}

func (tr *tracer) driverLane() *lane { return tr.lanes[len(tr.lanes)-1] }

func (tr *tracer) now() int64 { return int64(time.Since(tr.t0)) }

// begin opens a span and returns its id, for use as a parent.
func (l *lane) begin() (id uint64, start int64) {
	l.nextSeq++
	return uint64(l.client)<<48 | l.nextSeq, l.tr.now()
}

// end records the span opened by begin.
func (l *lane) end(id, parent uint64, name string, start int64, call int64, n int) {
	l.seen++
	if len(l.spans) >= l.limit && l.seen%sampleEvery != 0 {
		return
	}
	l.spans = append(l.spans, span{id: id, parent: parent, name: name, start: start, end: l.tr.now(), client: l.client, call: call, n: n})
}

func (tr *tracer) count() int {
	n := 0
	for _, l := range tr.lanes {
		n += len(l.spans)
	}
	return n
}

// write stores the trace as one JSON object per line, atomically.
func (tr *tracer) write(dir string) (string, error) {
	path := filepath.Join(dir, "trace-"+tr.workload+".jsonl")
	err := atomicfile.Write(path, func(w io.Writer) error {
		bw := bufio.NewWriterSize(w, 1<<20)
		for _, l := range tr.lanes {
			for _, s := range l.spans {
				if _, err := fmt.Fprintf(bw,
					`{"id":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d,"workload":%q,"client":%d,"call":%d,"n":%d}`+"\n",
					s.id, s.parent, s.name, s.start, s.end, tr.workload, s.client, s.call, s.n); err != nil {
					return err
				}
			}
		}
		return bw.Flush()
	})
	return path, err
}
