// Package shard scales a Sweep past one process: a coordinator
// partitions the sweep's canonical cell grid into contiguous cell-range
// shards, hands them to worker processes as revocable leases (shard
// range + attempt epoch + heartbeat deadline), and merges the journal
// segments the workers commit back into a single Result that is
// byte-identical to a clean single-process engine.Run.
//
// # Protocol
//
// All coordination happens through an addressable spool directory, so
// the same protocol works for coordinator-spawned workers on one
// machine and hand-launched workers sharing a filesystem:
//
//	<spool>/
//	  state-<sweepID>.json   coordinator lease table (atomic writes)
//	  seg/<leaseID>.journal  committed segments (atomic rename)
//	  hb/<leaseID>.hb        worker heartbeats (mtime = liveness)
//	  work/<leaseID>/        private per-lease journal dirs
//	  merged/<sweepID>/      merged journal replayed into the Result
//
// A worker executes its shard through engine.Run with RunConfig.Shard,
// journaling every cell to a private work dir, and commits by renaming
// the finished journal into seg/ — rename is the commit point, so a
// segment file either exists complete or not at all (and is CRC-verified
// again at merge). Liveness is the heartbeat file's mtime; a lease whose
// heartbeat goes stale past the TTL is revoked and its shard re-granted
// under a higher epoch.
//
// # Epoch fencing
//
// Every grant of a shard — including re-grants after a revocation —
// carries a strictly increasing epoch, persisted before the worker is
// launched. A segment is accepted only if its self-described lease
// epoch equals the shard's latest granted epoch: a zombie worker (one
// that was revoked but kept running) commits a segment under a stale
// epoch, which the merge provably rejects rather than double-merging.
// Because cells are deterministic, fencing is about attribution and
// at-most-once accounting, not value safety — a stale segment carries
// the same values, and the invariant the merge enforces is that exactly
// one segment per shard, the fenced one, contributes.
//
// # Crash matrix
//
// Worker crash (SIGKILL): no segment is committed; the exit is observed
// (or the heartbeat goes stale) and the shard is re-granted. Wedged
// worker: heartbeats stop, the lease TTL expires, the lease is revoked
// and re-granted; if the zombie later commits, its stale epoch is
// fenced out. Coordinator crash: the lease table and committed segments
// survive in the spool; a restarted coordinator resumes from them,
// re-granting only uncovered shards under fresh epochs. Merge:
// segments are CRC-checked, header-matched, completeness-checked and
// epoch-fenced, then replayed through the engine's checkpoint-resume
// path — the merged Result's values are byte-identical (Float64bits) to
// a workers=1 in-process run.
package shard

import (
	"fmt"
	"os"
	"path/filepath"

	"wrsn/internal/engine"
)

// layout resolves the spool directory structure.
type layout struct{ root string }

func newLayout(root string) layout { return layout{root: root} }

func (l layout) segDir() string   { return filepath.Join(l.root, "seg") }
func (l layout) hbDir() string    { return filepath.Join(l.root, "hb") }
func (l layout) workRoot() string { return filepath.Join(l.root, "work") }

func (l layout) segPath(lease engine.LeaseMeta) string {
	return filepath.Join(l.segDir(), lease.ID()+".journal")
}

func (l layout) heartbeatPath(lease engine.LeaseMeta) string {
	return filepath.Join(l.hbDir(), lease.ID()+".hb")
}

func (l layout) workDir(lease engine.LeaseMeta) string {
	return filepath.Join(l.workRoot(), lease.ID())
}

func (l layout) mergedDir(sweepID string) string {
	return filepath.Join(l.root, "merged", sweepID)
}

func (l layout) statePath(sweepID string) string {
	return filepath.Join(l.root, "state-"+sweepID+".json")
}

// ensure creates the spool's fixed subdirectories.
func (l layout) ensure() error {
	for _, dir := range []string{l.root, l.segDir(), l.hbDir(), l.workRoot()} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("shard: spool: %w", err)
		}
	}
	return nil
}
