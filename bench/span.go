package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// span is one timed section recorded by the benchmark, around a call into
// the system or into one of its layers. Spans of one request (or one probe)
// share Req; Parent is the ID of the span that caused this one, 0 at a
// root. Times are nanoseconds since the benchmark process started its run.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    string `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Self is End-Start minus the part of that interval child spans cover;
	// filled in by fillSelf.
	Self int64 `json:"self_ns"`
}

// fillSelf computes every span's self time: its duration minus the part of
// its interval that its direct children cover. Children may overlap each
// other and leave gaps; the covered part is the length of the union of the
// child intervals, each clipped to the parent.
func fillSelf(spans []span) {
	byID := make(map[int]int, len(spans))
	for i := range spans {
		byID[spans[i].ID] = i
	}
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		pi, ok := byID[s.Parent]
		if !ok {
			continue
		}
		p := spans[pi]
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{lo, hi})
		}
	}
	for i := range spans {
		iv := kids[spans[i].ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, end int64
		for j, k := range iv {
			if j == 0 || k[0] > end {
				covered += k[1] - k[0]
				end = k[1]
			} else if k[1] > end {
				covered += k[1] - end
				end = k[1]
			}
		}
		spans[i].Self = spans[i].End - spans[i].Start - covered
	}
}

// spanLog collects spans in memory; writeFile renders them at exit.
type spanLog struct {
	spans []span
}

// add appends a span and returns its ID.
func (l *spanLog) add(parent int, req, name string, start, end int64) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	return id
}

// traceFile is the shape of bench/out/trace_<workload>.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// OpsTotal is how many ops the traced run executed; span trees are
	// written for the first OpsWritten of them (every op's timings still
	// feed the per-layer metrics).
	OpsTotal   int    `json:"ops_total"`
	OpsWritten int    `json:"ops_written"`
	Spans      []span `json:"spans"`
}

func (l *spanLog) writeFile(path string, tf traceFile) error {
	fillSelf(l.spans)
	tf.Spans = l.spans
	b, err := json.Marshal(tf)
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
