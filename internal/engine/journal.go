package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Checkpoint configures per-cell crash-safe journaling for a sweep. When
// RunConfig.Checkpoint is set, every completed cell is appended to an
// append-only JSONL journal (one file per sweep ID under Dir, each
// record CRC-32 framed and fsynced) as soon as it finishes. With Resume,
// Run replays the journal first and skips every already-journaled cell;
// because journaled values are stored as exact IEEE-754 bit patterns,
// a resumed sweep's final figure is byte-identical to an uninterrupted
// run's, at any worker count.
type Checkpoint struct {
	// Dir holds one journal file per sweep ("<sweep ID>.journal").
	Dir string
	// Resume replays an existing journal instead of truncating it.
	Resume bool
}

// Typed journal failures, distinguishable with errors.Is.
var (
	// ErrJournalCorrupt reports corruption before the journal's final
	// record — bit flips or truncation that cannot be a crash's torn
	// tail. (A torn or corrupt *final* record is silently dropped: that
	// is what a mid-append crash leaves behind.)
	ErrJournalCorrupt = errors.New("engine: checkpoint journal corrupt")
	// ErrCheckpointMismatch reports a journal written by a different
	// sweep configuration (other grid shape, seeds or algorithms) than
	// the one being resumed.
	ErrCheckpointMismatch = errors.New("engine: checkpoint journal does not match sweep")
)

const journalVersion = 1

// journalHeader is the journal's first record: enough sweep identity to
// refuse resuming a journal that belongs to a different grid. A journal
// written by a sharded worker additionally carries its lease metadata,
// which identifies the segment but never participates in header
// matching (a merged journal has no lease).
type journalHeader struct {
	Version    int      `json:"version"`
	Sweep      string   `json:"sweep"`
	BaseSeed   int64    `json:"base_seed"`
	SeedStride int64    `json:"seed_stride"`
	Cells      int      `json:"cells"`
	Points     int      `json:"points"`
	Algorithms []string `json:"algorithms"`
	// Lease marks a journal segment written by a sharded worker under a
	// revocable lease (nil for whole-sweep journals and merged journals).
	Lease *LeaseMeta `json:"lease,omitempty"`
}

// CellRecord is one completed journaled cell. Values are stored as
// IEEE-754 bit patterns (math.Float64bits): exact round-trip, and JSON
// floats could not carry the NaN "no observation" marker anyway.
type CellRecord struct {
	Point int `json:"p"`
	Seed  int `json:"s"`
	Algo  int `json:"a"`
	// ValueBits holds math.Float64bits of each output value.
	ValueBits   []uint64 `json:"v"`
	Evaluations int64    `json:"e,omitempty"`
	DurationNS  int64    `json:"d,omitempty"`
	Attempts    int      `json:"n,omitempty"`
}

// journalLine is the on-disk framing: one JSON object per line carrying
// the record kind and a CRC-32 (IEEE) of the payload bytes.
type journalLine struct {
	Kind string          `json:"k"` // "h" header, "c" cell
	CRC  uint32          `json:"crc"`
	Rec  json.RawMessage `json:"rec"`
}

// journal is an open, append-only checkpoint file. Appends are
// serialised and fsynced record by record, so a crash loses at most the
// record being written — which replay then drops as a torn tail.
type journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
}

func journalPath(dir, sweepID string) string {
	return filepath.Join(dir, sweepID+".journal")
}

// encodeLine frames one record as a CRC'd JSONL line.
func encodeLine(kind string, rec interface{}) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	line, err := json.Marshal(journalLine{Kind: kind, CRC: crc32.ChecksumIEEE(payload), Rec: payload})
	if err != nil {
		return nil, err
	}
	return append(line, '\n'), nil
}

// decodeLine parses and CRC-checks one journal line.
func decodeLine(line []byte) (kind string, rec json.RawMessage, err error) {
	var jl journalLine
	if err := json.Unmarshal(line, &jl); err != nil {
		return "", nil, err
	}
	if crc32.ChecksumIEEE(jl.Rec) != jl.CRC {
		return "", nil, fmt.Errorf("CRC mismatch")
	}
	return jl.Kind, jl.Rec, nil
}

// decodeJournal replays journal bytes through DecodeFramed: the header,
// every valid cell record, and the byte length of the valid prefix. It
// never panics. A torn, CRC-failing or semantically bad *final* line is
// tolerated (the artifact of a crash mid-append) and excluded from
// validLen so the caller can truncate it away; a bad record anywhere
// earlier returns ErrJournalCorrupt. If the very first record is
// unusable the journal is treated as empty (hdr == nil, validLen 0).
// Duplicate cell records keep the first copy — cells are deterministic,
// so any duplicate carries the same values.
func decodeJournal(data []byte) (hdr *journalHeader, recs []CellRecord, validLen int, err error) {
	lines, validLen, ferr := DecodeFramed(data)
	seen := map[[3]int]bool{}
	replay := func(line FramedRecord) error {
		switch line.Kind {
		case "h":
			var h journalHeader
			if err := json.Unmarshal(line.Rec, &h); err != nil {
				return err
			}
			if hdr != nil {
				return errors.New("duplicate header")
			}
			if len(recs) > 0 {
				return errors.New("header after cell records")
			}
			hdr = &h
		case "c":
			if hdr == nil {
				return errors.New("cell record before header")
			}
			var c CellRecord
			if err := json.Unmarshal(line.Rec, &c); err != nil {
				return err
			}
			key := [3]int{c.Point, c.Seed, c.Algo}
			if !seen[key] {
				seen[key] = true
				recs = append(recs, c)
			}
		default:
			return fmt.Errorf("unknown record kind %q", line.Kind)
		}
		return nil
	}
	for i, line := range lines {
		cause := replay(line)
		if cause == nil {
			continue
		}
		end := validLen
		if i+1 < len(lines) {
			end = lines[i+1].Off
		}
		if end == len(data) {
			return hdr, recs, line.Off, nil // torn tail: keep the valid prefix
		}
		return nil, nil, 0, fmt.Errorf("%w: record at byte %d: %v", ErrJournalCorrupt, line.Off, cause)
	}
	if ferr != nil {
		return nil, nil, 0, ferr
	}
	return hdr, recs, validLen, nil
}

// headerMatches reports whether a replayed journal belongs to the sweep
// being resumed.
func headerMatches(got, want *journalHeader) bool {
	if got.Version != want.Version || got.Sweep != want.Sweep ||
		got.BaseSeed != want.BaseSeed || got.SeedStride != want.SeedStride ||
		got.Cells != want.Cells || got.Points != want.Points ||
		len(got.Algorithms) != len(want.Algorithms) {
		return false
	}
	for i := range got.Algorithms {
		if got.Algorithms[i] != want.Algorithms[i] {
			return false
		}
	}
	return true
}

// openJournal opens the sweep's journal under cp.Dir. On resume it
// replays an existing journal (validating its header against the sweep,
// truncating any torn tail) and returns the restored cell records; in
// all other cases it starts a fresh journal whose first record is the
// sweep header (carrying lease metadata when the run is one shard of a
// sharded sweep).
func openJournal(cp *Checkpoint, sw *Sweep, lease *LeaseMeta) (*journal, []CellRecord, error) {
	if err := os.MkdirAll(cp.Dir, 0o755); err != nil {
		return nil, nil, err
	}
	path := journalPath(cp.Dir, sw.ID)
	want := headerFor(sw, lease)

	if cp.Resume {
		data, err := os.ReadFile(path)
		switch {
		case err == nil && len(data) > 0:
			hdr, recs, validLen, derr := decodeJournal(data)
			if derr != nil {
				return nil, nil, fmt.Errorf("%s: %w", path, derr)
			}
			if hdr != nil {
				if !headerMatches(hdr, want) {
					return nil, nil, fmt.Errorf("%s: %w (journal header %+v)", path, ErrCheckpointMismatch, *hdr)
				}
				f, ferr := os.OpenFile(path, os.O_RDWR, 0o644)
				if ferr != nil {
					return nil, nil, ferr
				}
				if validLen < len(data) {
					if terr := f.Truncate(int64(validLen)); terr != nil {
						f.Close()
						return nil, nil, terr
					}
					if serr := f.Sync(); serr != nil {
						f.Close()
						return nil, nil, serr
					}
				}
				if _, serr := f.Seek(0, io.SeekEnd); serr != nil {
					f.Close()
					return nil, nil, serr
				}
				return &journal{f: f, path: path}, recs, nil
			}
			// Unusable from the first record: start over.
		case err != nil && !os.IsNotExist(err):
			return nil, nil, err
		}
	}

	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	j := &journal{f: f, path: path}
	if err := j.append("h", want); err != nil {
		f.Close()
		return nil, nil, err
	}
	SyncDir(cp.Dir)
	return j, nil, nil
}

// append frames, writes and fsyncs one record.
func (j *journal) append(kind string, rec interface{}) error {
	line, err := encodeLine(kind, rec)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(line); err != nil {
		return err
	}
	return j.f.Sync()
}

func (j *journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// algoLabels returns the sweep's algorithm labels in declaration order.
func algoLabels(sw *Sweep) []string {
	labels := make([]string, len(sw.Algorithms))
	for i := range sw.Algorithms {
		labels[i] = sw.Algorithms[i].Label
	}
	return labels
}
