package engine

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// LeaseMeta identifies one shard lease of a sharded sweep: the cell
// range a worker was granted, the attempt epoch the grant belongs to,
// and the worker that held it. It is stamped into the header of the
// journal segment the worker writes, making every segment
// self-describing: the coordinator merges segments by what their
// headers claim, not by where their files came from, and fences out
// segments whose epoch is no longer current.
type LeaseMeta struct {
	// Sweep is the Sweep.ID the lease belongs to.
	Sweep string `json:"sweep"`
	// Start and End bound the granted cell range [Start, End) in the
	// sweep's canonical point-major cell order.
	Start int `json:"start"`
	End   int `json:"end"`
	// Epoch is the shard's attempt epoch. Each grant of the same cell
	// range — including re-grants after a revocation — carries a higher
	// epoch than every earlier grant, so a segment from a revoked
	// (zombie) lease is recognisable and rejected at merge.
	Epoch int64 `json:"epoch"`
	// Worker names the lease holder (informational).
	Worker string `json:"worker,omitempty"`
}

// ID is the lease's canonical name, unique per (sweep, range, epoch) —
// used for heartbeat and segment file names.
func (l LeaseMeta) ID() string {
	return fmt.Sprintf("%s-c%d-%d-e%d", l.Sweep, l.Start, l.End, l.Epoch)
}

func (l LeaseMeta) String() string {
	return fmt.Sprintf("%s cells [%d,%d) epoch %d", l.Sweep, l.Start, l.End, l.Epoch)
}

// ShardSpec restricts a Run to the cell-index range [Start, End) of the
// sweep's canonical point-major grid order. Cells outside the range are
// neither executed nor reported; the checkpoint journal (if configured)
// receives only the shard's cells, and carries Lease in its header.
// An empty range (Start == End) runs nothing.
type ShardSpec struct {
	Start, End int
	// Lease is stamped into the checkpoint journal header so the
	// resulting segment is self-describing (may be nil).
	Lease *LeaseMeta
}

// CellCount returns the total number of cells in the sweep's canonical
// point-major grid order (points × per-point seeds × algorithms) — the
// index space ShardSpec and LeaseMeta ranges refer to.
func CellCount(sw *Sweep) int {
	n := 0
	for pi := range sw.Points {
		n += sw.pointSeeds(pi) * len(sw.Algorithms)
	}
	return n
}

// CellIndex returns the canonical cell index of (point, seed, algo) in
// the sweep's point-major grid order, or -1 if the coordinates fall
// outside the grid.
func CellIndex(sw *Sweep, point, seed, algo int) int {
	if point < 0 || point >= len(sw.Points) ||
		seed < 0 || seed >= sw.pointSeeds(point) ||
		algo < 0 || algo >= len(sw.Algorithms) {
		return -1
	}
	idx := 0
	for pi := 0; pi < point; pi++ {
		idx += sw.pointSeeds(pi) * len(sw.Algorithms)
	}
	return idx + seed*len(sw.Algorithms) + algo
}

// headerFor builds the journal header identifying sw (with optional
// lease metadata for shard segments).
func headerFor(sw *Sweep, lease *LeaseMeta) *journalHeader {
	return &journalHeader{
		Version:    journalVersion,
		Sweep:      sw.ID,
		BaseSeed:   sw.BaseSeed,
		SeedStride: sw.SeedStride,
		Cells:      CellCount(sw),
		Points:     len(sw.Points),
		Algorithms: algoLabels(sw),
		Lease:      lease,
	}
}

// SweepSignature is a stable identity string for the sweep's grid shape
// and seeding — the same fields a checkpoint journal header carries.
// The shard coordinator persists it with its lease table so a restarted
// coordinator refuses a spool that belongs to a different sweep.
func SweepSignature(sw *Sweep) string {
	b, err := json.Marshal(headerFor(sw, nil))
	if err != nil {
		// The header is plain ints and strings; Marshal cannot fail.
		panic(fmt.Sprintf("engine: sweep signature: %v", err))
	}
	return string(b)
}

// Segment is one validated journal segment: a complete, CRC-checked
// shard journal written by a worker under a lease.
type Segment struct {
	// Path is where the segment was read from.
	Path string
	// Lease is the segment's self-described shard lease.
	Lease LeaseMeta
	// Records are the shard's cells, one per cell of [Start, End).
	Records []CellRecord
}

// ReadSegment reads and fully validates one journal segment for sw:
// every line CRC-checked with no torn tail (a committed segment is
// complete by construction — workers rename it into place only after a
// clean close), header matching the sweep, lease metadata present, and
// the records covering the lease's cell range exactly. Anything less is
// an error: the merge path trusts only segments that pass here.
func ReadSegment(path string, sw *Sweep) (*Segment, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	hdr, recs, validLen, err := decodeJournal(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if hdr == nil {
		return nil, fmt.Errorf("%s: %w: segment has no header", path, ErrJournalCorrupt)
	}
	if validLen != len(data) {
		return nil, fmt.Errorf("%s: %w: torn tail at byte %d of %d — segment was not committed atomically",
			path, ErrJournalCorrupt, validLen, len(data))
	}
	if want := headerFor(sw, nil); !headerMatches(hdr, want) {
		return nil, fmt.Errorf("%s: %w (segment header %+v)", path, ErrCheckpointMismatch, *hdr)
	}
	if hdr.Lease == nil {
		return nil, fmt.Errorf("%s: %w: segment header carries no lease metadata", path, ErrCheckpointMismatch)
	}
	lease := *hdr.Lease
	if lease.Sweep != sw.ID || lease.Start < 0 || lease.End > CellCount(sw) || lease.Start > lease.End {
		return nil, fmt.Errorf("%s: %w: lease %s outside sweep grid of %d cells",
			path, ErrCheckpointMismatch, lease, CellCount(sw))
	}
	covered := make(map[int]bool, len(recs))
	for _, rec := range recs {
		idx := CellIndex(sw, rec.Point, rec.Seed, rec.Algo)
		if idx < 0 || idx < lease.Start || idx >= lease.End {
			return nil, fmt.Errorf("%s: %w: cell record (point %d, seed %d, algorithm %d) outside lease %s",
				path, ErrCheckpointMismatch, rec.Point, rec.Seed, rec.Algo, lease)
		}
		covered[idx] = true
	}
	if len(covered) != lease.End-lease.Start {
		return nil, fmt.Errorf("%s: %w: segment covers %d of %d cells of lease %s — incomplete shard",
			path, ErrJournalCorrupt, len(covered), lease.End-lease.Start, lease)
	}
	return &Segment{Path: path, Lease: lease, Records: recs}, nil
}

// WriteMergedJournal writes a fresh, complete journal for sw under dir
// (at the same path RunConfig.Checkpoint uses), containing the given
// cell records. A subsequent Run with Checkpoint{Dir: dir, Resume: true}
// replays it without executing any cell, assembling a Result
// byte-identical to an uninterrupted in-process run — this is the
// sharded sweep merge path. Records should be in grid order; the file
// is replaced whole through WriteFileAtomic, so a crash leaves either
// the previous merged journal or the new one.
func WriteMergedJournal(dir string, sw *Sweep, recs []CellRecord) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := journalPath(dir, sw.ID)
	err := WriteFileAtomic(path, func(w io.Writer) error {
		write := func(kind string, rec interface{}) error {
			line, err := encodeLine(kind, rec)
			if err != nil {
				return err
			}
			_, err = w.Write(line)
			return err
		}
		if err := write("h", headerFor(sw, nil)); err != nil {
			return err
		}
		for _, rec := range recs {
			if err := write("c", rec); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	return path, nil
}
