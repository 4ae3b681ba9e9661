package main

import (
	"encoding/json"
	"os"
	"sort"

	"rendelim/internal/obs"
)

// spanStat accumulates one span name's occurrences.
type spanStat struct {
	Count  int64 `json:"count"`
	WallNS int64 `json:"wall_ns"` // summed span durations
	SelfNS int64 `json:"self_ns"` // summed durations minus the part child spans cover
}

// spanTable maps span name to its totals.
type spanTable map[string]*spanStat

func (t spanTable) add(name string, wall, self int64) {
	s := t[name]
	if s == nil {
		s = &spanStat{}
		t[name] = s
	}
	s.Count++
	s.WallNS += wall
	s.SelfNS += self
}

func (t spanTable) self(names ...string) int64 {
	var ns int64
	for _, n := range names {
		if s := t[n]; s != nil {
			ns += s.SelfNS
		}
	}
	return ns
}

func (t spanTable) selfTotal() int64 {
	var ns int64
	for _, s := range t {
		ns += s.SelfNS
	}
	return ns
}

func (t spanTable) merge(o spanTable) {
	for name, s := range o {
		d := t[name]
		if d == nil {
			d = &spanStat{}
			t[name] = d
		}
		d.Count += s.Count
		d.WallNS += s.WallNS
		d.SelfNS += s.SelfNS
	}
}

// foldSpans adds the spans of a Chrome trace to t. Spans nest per track
// (tid): a span's self time is its duration minus its direct children's
// durations, which on one track never overlap. keep decides per root span
// (the outermost span of a track) whether it and everything under it count;
// the simulator's root span is "frame", carrying the frame index.
func foldSpans(t spanTable, events []obs.Event, keep func(root obs.Event) bool) {
	type open struct {
		name     string
		startNS  int64
		childNS  int64
		rootKept bool
	}
	stacks := map[int][]open{}
	for _, e := range events {
		ts := int64(e.TS * 1e3)
		switch e.Ph {
		case "B":
			st := stacks[e.TID]
			o := open{name: e.Name, startNS: ts}
			if len(st) == 0 {
				o.rootKept = keep(e)
			} else {
				o.rootKept = st[0].rootKept
			}
			stacks[e.TID] = append(st, o)
		case "E":
			st := stacks[e.TID]
			if len(st) == 0 {
				continue
			}
			o := st[len(st)-1]
			st = st[:len(st)-1]
			stacks[e.TID] = st
			wall := ts - o.startNS
			if len(st) > 0 {
				st[len(st)-1].childNS += wall
			}
			if o.rootKept {
				t.add(o.name, wall, wall-o.childNS)
			}
		}
	}
}

// writeSpans saves the span totals, keyed by a label such as "ccs/re", as
// JSON with sorted keys.
func writeSpans(path string, tables map[string]spanTable) error {
	labels := make([]string, 0, len(tables))
	for l := range tables {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	type entry struct {
		Label string               `json:"label"`
		Spans map[string]*spanStat `json:"spans"`
	}
	out := make([]entry, 0, len(labels))
	for _, l := range labels {
		out = append(out, entry{Label: l, Spans: tables[l]})
	}
	b, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
