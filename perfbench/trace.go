package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"time"
)

// spanID names one recorded span: the recording track in the high
// bits, the index in that track's buffer in the low bits. 0 means "no
// parent" (root spans).
type spanID uint64

const trackShift = 40

// span is one timed call into the system, recorded around the
// benchmark's own calls (the program itself is not instrumented).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent spanID `json:"parent"`
	ID     spanID `json:"id"`
	Frame  int64  `json:"frame"` // frame id for stage spans, -1 otherwise
}

// tracer keeps spans in memory, one append-only track per goroutine so
// recording needs no lock. A nil *tracer records nothing, which is the
// untraced mode.
type tracer struct {
	epoch  time.Time
	tracks []*track
}

type track struct {
	idx   uint64
	t     *tracer
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// track returns a new recording track; each goroutine that records
// spans uses its own. Tracks must be created before the goroutines
// that use them start.
func (tr *tracer) track() *track {
	if tr == nil {
		return nil
	}
	tk := &track{idx: uint64(len(tr.tracks) + 1), t: tr}
	tr.tracks = append(tr.tracks, tk)
	return tk
}

// begin opens a span; end closes it.
func (tk *track) begin(name string, parent spanID, frame int64) spanID {
	if tk == nil {
		return 0
	}
	tk.spans = append(tk.spans, span{
		Name: name, Start: int64(time.Since(tk.t.epoch)), End: -1,
		Parent: parent, Frame: frame,
		ID: spanID(tk.idx<<trackShift | uint64(len(tk.spans))),
	})
	return tk.spans[len(tk.spans)-1].ID
}

func (tk *track) end(id spanID) {
	if tk == nil {
		return
	}
	tk.spans[uint64(id)&(1<<trackShift-1)].End = int64(time.Since(tk.t.epoch))
}

// all returns every span of every track.
func (tr *tracer) all() []span {
	var out []span
	for _, tk := range tr.tracks {
		out = append(out, tk.spans...)
	}
	return out
}

// checkSpans verifies every span is closed and every parent exists.
func checkSpans(spans []span) error {
	ids := make(map[spanID]bool, len(spans))
	for _, s := range spans {
		ids[s.ID] = true
	}
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %s (%d) never ended", s.Name, s.ID)
		}
		if s.Parent != 0 && !ids[s.Parent] {
			return fmt.Errorf("span %s (%d) has missing parent %d", s.Name, s.ID, s.Parent)
		}
	}
	return nil
}

// selfTimes sums, per span name, each span's duration minus the part of
// it covered by its children.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[spanID][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		covered := int64(0)
		kids := children[s.ID]
		slices.SortFunc(kids, func(a, b span) int { return cmp.Compare(a.Start, b.Start) })
		reach := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// durationsOf lists the durations of the spans called name.
func durationsOf(spans []span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
