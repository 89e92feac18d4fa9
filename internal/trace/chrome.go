package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"dsmtx/internal/platform"
)

// WriteChromeTrace renders the recorded timeline as Chrome trace-event
// JSON, loadable in Perfetto or chrome://tracing. Cluster nodes render as
// processes (pid), simulated ranks as threads (tid), and virtual time as
// the timestamp axis (ts/dur are microseconds in the format; we emit
// fractional microseconds so full nanosecond precision survives).
//
// The output is deterministic: metadata sorted by track id, events in
// recording order (which is itself deterministic under the simulation
// kernel's total event order), and all JSON hand-assembled with fixed
// field order. Wall-clock (host) traces flush their per-track buffers
// first — events come out grouped by track, sorted by start time — and
// carry a top-level "clock":"wall" marker so validators know per-track
// start-time monotonicity is guaranteed, and a top-level "dropped":N when
// full track buffers discarded N events (DroppedSpans), so an incomplete
// timeline says so in the file. Perfetto ignores both keys.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	t.flush()
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"traceEvents\":[\n")
	first := true
	sep := func() {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
	}
	if t != nil {
		tracks := make([]int32, 0, len(t.tracks))
		for id := range t.tracks {
			tracks = append(tracks, id)
		}
		sort.Slice(tracks, func(i, j int) bool { return tracks[i] < tracks[j] })
		pidsSeen := make(map[int]bool)
		for _, id := range tracks {
			info := t.tracks[id]
			if !pidsSeen[info.pid] {
				pidsSeen[info.pid] = true
				sep()
				fmt.Fprintf(bw, `{"ph":"M","pid":%d,"tid":0,"name":"process_name","args":{"name":"node%d"}}`,
					info.pid, info.pid)
			}
			sep()
			fmt.Fprintf(bw, `{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":%s}}`,
				info.pid, id, quoteJSON(info.name))
			sep()
			// sort_index keeps rank order stable in the UI regardless of
			// first-event time.
			fmt.Fprintf(bw, `{"ph":"M","pid":%d,"tid":%d,"name":"thread_sort_index","args":{"sort_index":%d}}`,
				info.pid, id, id)
		}
		for i := range t.events {
			sep()
			t.writeEvent(bw, &t.events[i])
		}
	}
	bw.WriteString("\n]")
	if t.Wall() {
		bw.WriteString(`,"clock":"wall"`)
	}
	if d := t.DroppedSpans(); d > 0 {
		fmt.Fprintf(bw, `,"dropped":%d`, d)
	}
	bw.WriteString("}\n")
	return bw.Flush()
}

func (t *Tracer) writeEvent(bw *bufio.Writer, e *Event) {
	meta := &kindMeta[e.Kind]
	pid := 0
	if info, ok := t.tracks[e.Track]; ok {
		pid = info.pid
	}
	if e.Start == e.End {
		fmt.Fprintf(bw, `{"ph":"i","s":"t","pid":%d,"tid":%d,"ts":%s,"name":%s,"cat":%s`,
			pid, e.Track, usec(e.Start), quoteJSON(meta.name), quoteJSON(meta.cat))
	} else {
		fmt.Fprintf(bw, `{"ph":"X","pid":%d,"tid":%d,"ts":%s,"dur":%s,"name":%s,"cat":%s`,
			pid, e.Track, usec(e.Start), usec(e.End-e.Start), quoteJSON(meta.name), quoteJSON(meta.cat))
	}
	if meta.mtxName != "" || meta.a1 != "" || meta.a2 != "" {
		bw.WriteString(`,"args":{`)
		argFirst := true
		arg := func(name string, v int64) {
			if !argFirst {
				bw.WriteByte(',')
			}
			argFirst = false
			fmt.Fprintf(bw, `"%s":%d`, name, v)
		}
		if meta.mtxName != "" {
			arg(meta.mtxName, int64(e.MTX))
		}
		if meta.a1 != "" {
			arg(meta.a1, e.V1)
		}
		if meta.a2 != "" {
			arg(meta.a2, e.V2)
		}
		bw.WriteByte('}')
	}
	bw.WriteByte('}')
}

// usec renders virtual nanoseconds as the trace format's microseconds,
// keeping exact nanosecond precision as a fixed three-decimal fraction.
func usec(ns platform.Time) string {
	if ns < 0 {
		ns = 0
	}
	return fmt.Sprintf("%d.%03d", ns/1000, ns%1000)
}

// quoteJSON escapes a short label as a JSON string. Labels are
// runtime-generated ASCII; the escape set covers the JSON metacharacters.
func quoteJSON(s string) string {
	var b strings.Builder
	b.Grow(len(s) + 2)
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b.WriteByte('\\')
			b.WriteByte(c)
		case c < 0x20:
			fmt.Fprintf(&b, `\u%04x`, c)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}
