package engine

import "time"

// EventKind discriminates progress events.
type EventKind int

const (
	// CellStarted fires when a cell's algorithm starts an attempt.
	CellStarted EventKind = iota
	// CellFinished fires when a cell's algorithm returns (or errors).
	CellFinished
)

// Event is one observation from a running sweep. The runner serialises
// callbacks (one event at a time), so ProgressFunc implementations need
// no locking of their own.
type Event struct {
	Kind  EventKind
	Sweep string // Sweep.ID

	// Cell coordinates.
	Point     int
	Seed      int
	Algorithm string // Algorithm.Label

	// Done and Total count finished cells out of the sweep's grid
	// (valid on CellFinished; Done includes this event's cell).
	Done  int
	Total int

	// Duration is the cell's algorithm wall time (CellFinished only;
	// instance generation is accounted to the sweep, not the cell).
	// Cells restored from a checkpoint journal report zero here: they
	// cost this run nothing.
	Duration time.Duration
	// Evaluations is the cell's reported solver-evaluation count
	// (CellFinished only; 0 when the algorithm does not report one).
	Evaluations int64
	// Attempt is which attempt this event belongs to (1 = first;
	// CellStarted fires once per attempt that reaches the algorithm,
	// so not for one that injected chaos failed first; CellFinished
	// reports how many attempts started).
	Attempt int
	// Resumed marks a cell restored from the checkpoint journal rather
	// than executed (CellFinished only).
	Resumed bool
	// Err is the cell's failure, if any (CellFinished only). Terminal
	// failures are *CellError values.
	Err error
}

// ProgressFunc observes sweep execution. Callbacks run on worker
// goroutines but are serialised by the runner.
type ProgressFunc func(Event)

// Timing is the per-sweep performance summary: the machine-readable
// record behind the BENCH_PR2.json perf artifact.
//
// WallSeconds and ActiveSeconds answer different questions. Wall time
// is start-to-finish for the sweep — but sweeps run concurrently under
// a shared Limiter, so a figure's wall clock keeps ticking while its
// cells wait for slots occupied by *other* figures; comparing wall
// times across runs with different figure mixes misattributes that
// contention. ActiveSeconds sums the cells' own algorithm runtimes
// (CPU-ish time actually spent computing this figure), which is stable
// under co-scheduling and is the number perf trajectories should track.
type Timing struct {
	Figure        string  `json:"figure"`
	WallSeconds   float64 `json:"wall_seconds"`
	ActiveSeconds float64 `json:"active_seconds"`
	Cells         int     `json:"cells"`
	CellsPerSec   float64 `json:"cells_per_sec"`
	Evaluations   int64   `json:"solver_evaluations"`
	// Workers is the size of the shared cell pool the figure drew from —
	// an upper bound, not a per-figure allocation.
	Workers int `json:"workers"`
	// SpanSeconds is first-cell-start to last-cell-finish: the window the
	// figure actually had cells in flight. A small figure co-scheduled
	// with heavy ones (fig6 under -fig all) shows a wall clock spanning
	// the whole run but a span close to its active time.
	SpanSeconds float64 `json:"span_seconds,omitempty"`
	// PeakWorkers is the most cells this figure had executing at once —
	// the honest per-figure concurrency under the shared Limiter.
	PeakWorkers int `json:"peak_workers,omitempty"`
}

// NewTiming assembles a Timing record from a measured run — used by the
// runner for per-sweep summaries and by callers aggregating their own
// wall-clock measurements (e.g. the CLI's per-figure bench artifact).
// active is the summed per-cell algorithm runtime; wall is elapsed time.
func NewTiming(id string, wall, active time.Duration, cells int, evaluations int64, workers int) Timing {
	t := Timing{
		Figure:        id,
		WallSeconds:   wall.Seconds(),
		ActiveSeconds: active.Seconds(),
		Cells:         cells,
		Evaluations:   evaluations,
		Workers:       workers,
	}
	if wall > 0 {
		t.CellsPerSec = float64(cells) / wall.Seconds()
	}
	return t
}
