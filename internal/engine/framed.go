package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// This file is the repository's one crash-safe file layer: the
// CRC-framed JSONL codec every journal, segment and plan cache is
// written in, the one atomic whole-file writer, and the one directory
// fsync.

// FramedRecord is one decoded line of a CRC-framed JSONL file — the
// checkpoint journal format (journal.go) exposed generically so other
// crash-safe stores (the wrsnd plan-cache journal) reuse the exact
// framing, CRC validation and torn-tail semantics.
type FramedRecord struct {
	// Kind is the caller-defined record kind tag.
	Kind string
	// Rec is the CRC-validated payload.
	Rec json.RawMessage
	// Off is the byte offset of the record's line in the decoded data.
	Off int
}

// EncodeFramed frames one record as a CRC-32 JSONL line (newline
// included): the payload is marshalled, checksummed with CRC-32 (IEEE)
// and wrapped in the journal line envelope. A file of EncodeFramed lines
// round-trips through DecodeFramed.
func EncodeFramed(kind string, rec interface{}) ([]byte, error) {
	return encodeLine(kind, rec)
}

// DecodeFramed replays CRC-framed JSONL bytes into records plus the byte
// length of the valid prefix. It is torn-tail tolerant: an unterminated,
// corrupt or CRC-failing *final* line is the artifact of a crash
// mid-append and is silently excluded from validLen (the caller may
// truncate it away). Corruption anywhere earlier returns
// ErrJournalCorrupt, with recs holding the records before the bad line
// and validLen its offset.
func DecodeFramed(data []byte) (recs []FramedRecord, validLen int, err error) {
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			// Unterminated final line: the append never completed (the
			// newline is written with the record). Torn tail, even if
			// the fragment happens to parse.
			return recs, off, nil
		}
		next := off + nl + 1
		kind, raw, lerr := decodeLine(data[off : off+nl])
		if lerr != nil {
			if next >= len(data) {
				return recs, off, nil // torn tail: keep the valid prefix
			}
			return recs, off, fmt.Errorf("%w: record at byte %d: %v", ErrJournalCorrupt, off, lerr)
		}
		recs = append(recs, FramedRecord{Kind: kind, Rec: raw, Off: off})
		off = next
	}
	return recs, off, nil
}

// WriteFileAtomic replaces path with the bytes fill writes, so that a
// crash at any point leaves either the old file or the new one whole:
// fill writes into a temp file in path's directory, which is
// fsynced, closed and renamed over path, and then the directory is
// fsynced so the rename itself survives. On any error the temp file is
// removed and an existing file at path is left untouched. The directory
// must already exist.
func WriteFileAtomic(path string, fill func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close() // already closed after a failed Close or Rename
			os.Remove(f.Name())
		}
	}()
	if err = fill(f); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = os.Rename(f.Name(), path); err != nil {
		return err
	}
	SyncDir(dir)
	return nil
}

// SyncDir fsyncs a directory so a just-created or just-renamed file in
// it survives a crash. Errors are ignored: not every platform or
// filesystem supports directory fsync, and losing it only weakens crash
// atomicity back to the pre-fsync status quo.
func SyncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
