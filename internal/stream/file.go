package stream

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"gps/internal/graph"
)

// maxLineBytes caps one edge-list line. Real edge lists stay far below it;
// the cap exists so a malformed (e.g. newline-free) input cannot buffer
// without bound, and hitting it is reported with the offending line number
// instead of bufio's opaque "token too long".
const maxLineBytes = 1 << 20

// ReadEdgeList parses a plain-text edge list: one edge per line as "u v" or
// "u v ts", whitespace separated, with '#' or '%' starting a comment line.
// A line whose first field is "-" or "del" is a turnstile deletion of the
// edge named by the remaining fields ("del u v" or "- u v ts"); the decoded
// edge carries graph.Edge.Del. The optional third column is an event
// timestamp (unsigned; 0 means
// untimed, i.e. arrival order); a non-numeric third field is tolerated and
// ignored, like any further annotation columns, so edge lists carrying
// labels or float weights still load as untimed streams. A numeric third
// column is only *kept* as event time when it is present on every data row
// and non-decreasing over the file — the shape of a real activity log —
// otherwise it is a weight/count column (or partial annotation) in
// disguise, and the whole stream loads untimed
// (ReadStats.TimestampsDropped reports the fallback). Self loops are
// skipped and counted under the shared reader policy (see ReadStats);
// duplicate edges are kept so that callers can decide whether to Simplify.
// Node ids must fit in uint32.
func ReadEdgeList(r io.Reader) ([]graph.Edge, error) {
	edges, _, err := ReadEdgeListStats(r)
	return edges, err
}

// ReadEdgeListStats is ReadEdgeList also reporting what was skipped.
func ReadEdgeListStats(r io.Reader) ([]graph.Edge, ReadStats, error) {
	var edges []graph.Edge
	var st ReadStats
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	line := 0
	var prevTS uint64
	monotone := true // over rows that carry a numeric third column
	sawTS := false
	untimedRows := 0 // data rows without a numeric third column
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' || text[0] == '%' {
			continue
		}
		fields := strings.Fields(text)
		del := false
		if fields[0] == "-" || fields[0] == "del" {
			del = true
			fields = fields[1:]
		}
		if len(fields) < 2 {
			return nil, st, fmt.Errorf("stream: line %d: want at least two fields, got %q", line, text)
		}
		u, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, st, fmt.Errorf("stream: line %d: bad node id %q: %v", line, fields[0], err)
		}
		v, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, st, fmt.Errorf("stream: line %d: bad node id %q: %v", line, fields[1], err)
		}
		var ts uint64
		// A column of 0 is no timestamp either: event time 0 means untimed.
		if t, err := tsColumn(fields); err == nil && t != 0 {
			ts = t
			if sawTS && t < prevTS {
				monotone = false
			}
			sawTS, prevTS = true, t
		} else {
			untimedRows++
		}
		if u == v {
			st.SelfLoops++ // shared self-loop policy: skip and count
			continue
		}
		e := graph.NewEdgeAt(graph.NodeID(u), graph.NodeID(v), ts)
		if del {
			e = e.AsDeletion()
		}
		edges = append(edges, e)
	}
	if sawTS && (!monotone || untimedRows > 0) {
		// A decreasing column is a weight/count column in disguise, and a
		// column present on only some rows cannot be a coherent event-time
		// axis either — a partially-timed slice would poison downstream
		// consumers (the v2 delta encoder rejects it, decay would stamp
		// incommensurate fallback times). Load the stream untimed
		// (pre-timestamp behaviour) and report the fallback.
		for i := range edges {
			edges[i].TS = 0
		}
		st.TimestampsDropped = true
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			// The scanner fails on the line after the last one it returned.
			return nil, st, fmt.Errorf("stream: line %d: line exceeds %d bytes: %w", line+1, maxLineBytes, err)
		}
		// %w keeps the reader's error type (e.g. *http.MaxBytesError, which
		// the service maps to 413) visible through errors.As.
		return nil, st, fmt.Errorf("stream: read: %w", err)
	}
	return edges, st, nil
}

// tsColumn extracts a row's numeric third column; any error means the row
// carries no timestamp (absent, or a non-numeric annotation).
func tsColumn(fields []string) (uint64, error) {
	if len(fields) < 3 {
		return 0, strconv.ErrSyntax
	}
	return strconv.ParseUint(fields[2], 10, 64)
}

// WriteEdgeList writes edges in the plain-text format accepted by
// ReadEdgeList: one canonical "u v" pair per line, with a third timestamp
// column for edges that carry one (TS != 0) and a leading "del" marker on
// turnstile deletions.
func WriteEdgeList(w io.Writer, edges []graph.Edge) error {
	bw := bufio.NewWriter(w)
	for _, e := range edges {
		if e.Del {
			if _, err := bw.WriteString("del "); err != nil {
				return err
			}
		}
		var err error
		if e.TS != 0 {
			_, err = fmt.Fprintf(bw, "%d %d %d\n", e.U, e.V, e.TS)
		} else {
			_, err = fmt.Fprintf(bw, "%d %d\n", e.U, e.V)
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}
