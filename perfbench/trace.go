package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// span is one timed interval recorded from the benchmark's side of a layer
// boundary. parent indexes the enclosing span in the same log (-1 for a
// root); op is the generated op's sequence number (or, for kernel and codec
// timings, the repetition).
type span struct {
	name       string
	start, end int64
	parent     int
	op         int64
}

// spanLog keeps spans in memory for the traced run; a disabled log records
// nothing.
type spanLog struct {
	on    bool
	spans []span
}

// add records a span and returns its index (-1 when the log is off).
func (l *spanLog) add(name string, start, end int64, parent int, op int64) int {
	if !l.on {
		return -1
	}
	l.spans = append(l.spans, span{name: name, start: start, end: end, parent: parent, op: op})
	return len(l.spans) - 1
}

// addOp records an op's root span [due, done] and its two child spans,
// admission [start, ret] and wait [ret, done], named prefix+".admit"/".wait"
// (or ".submit"/".wait" for the client).
func (l *spanLog) addOp(admit, wait string, seq, due, start, ret, done int64) {
	if !l.on || done == 0 {
		return
	}
	root := l.add("op", due, done, -1, seq)
	l.add(admit, start, ret, root, seq)
	l.add(wait, ret, done, root, seq)
}

// selfTimes returns each span's self time: its duration minus the part of
// it covered by its children (overlapping children are counted once).
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
		cs := kids[i]
		if len(cs) == 0 {
			continue
		}
		ivs := make([][2]int64, 0, len(cs))
		for _, c := range cs {
			lo, hi := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, curLo, curHi int64
		for j, iv := range ivs {
			if j == 0 || iv[0] > curHi {
				covered += curHi - curLo
				curLo, curHi = iv[0], iv[1]
			} else if iv[1] > curHi {
				curHi = iv[1]
			}
		}
		covered += curHi - curLo
		self[i] -= covered
	}
	return self
}

// durations returns the durations (ns) of the spans named name.
func (l *spanLog) durations(name string) []float64 {
	var xs []float64
	for _, s := range l.spans {
		if s.name == name {
			xs = append(xs, float64(s.end-s.start))
		}
	}
	return xs
}

// summary prints total self time and count per span name.
func (l *spanLog) summary(w *bufio.Writer) {
	self := selfTimes(l.spans)
	tot := map[string]int64{}
	cnt := map[string]int{}
	for i, s := range l.spans {
		tot[s.name] += self[i]
		cnt[s.name]++
	}
	names := make([]string, 0, len(tot))
	for n := range tot {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		fmt.Fprintf(w, "# span %-16s count %8d  self time %12.3f ms in all, %10.3f us per span\n", n, cnt[n], float64(tot[n])/1e6, float64(tot[n])/1e3/float64(cnt[n]))
	}
}

// writeFile writes up to limit spans as CSV (name,start_ns,end_ns,parent,op).
func (l *spanLog) writeFile(path string, limit int) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,start_ns,end_ns,parent,op")
	for _, s := range l.spans[:min(limit, len(l.spans))] {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d\n", s.name, s.start, s.end, s.parent, s.op)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
