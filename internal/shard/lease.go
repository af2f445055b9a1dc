package shard

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"wrsn/internal/engine"
)

// Lease is a revocable grant of one cell-range shard to one worker.
// The wire representation (journal segment headers, CLI flags) is
// engine.LeaseMeta; this package adds only protocol behaviour.
type Lease = engine.LeaseMeta

// ParseRange parses a "start:end" cell-range flag into [start, end).
func ParseRange(s string) (start, end int, err error) {
	lo, hi, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("shard: range %q is not start:end", s)
	}
	start, err1 := strconv.Atoi(lo)
	end, err2 := strconv.Atoi(hi)
	if err1 != nil || err2 != nil || start < 0 || start > end {
		return 0, 0, fmt.Errorf("shard: range %q is not a valid start:end cell range", s)
	}
	return start, end, nil
}

// writeHeartbeat touches the lease's heartbeat file; the file's mtime is
// the liveness signal the coordinator watches. The payload (done-cell
// count) is informational.
func writeHeartbeat(l layout, lease Lease, done int) error {
	return engine.WriteFileAtomic(l.heartbeatPath(lease), func(w io.Writer) error {
		_, err := fmt.Fprintf(w, "{\"done\":%d}\n", done)
		return err
	})
}

// lastBeat returns the heartbeat file's mtime, or the zero time if the
// worker has not beaten yet.
func lastBeat(l layout, lease Lease) time.Time {
	st, err := os.Stat(l.heartbeatPath(lease))
	if err != nil {
		return time.Time{}
	}
	return st.ModTime()
}
