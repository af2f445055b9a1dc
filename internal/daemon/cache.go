package daemon

import (
	"container/list"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"wrsn/internal/engine"
	"wrsn/internal/model"
)

// planCache is the daemon's bounded LRU of finished plans, keyed by the
// canonical 64-bit hash of (solver, instance signature). Entries carry
// the full signature, so a hash collision reads as a miss — the cache
// can serve a stale-free wrong plan to nobody. Values are the exact
// response plan bytes, returned verbatim on every hit: a cached answer
// is byte-identical to the solve that produced it, across restarts when
// the cache is journaled.
type planCache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	byKey map[uint64]*list.Element
}

// cacheEntry is one cached plan.
type cacheEntry struct {
	key  uint64
	sig  string
	plan json.RawMessage
}

func newPlanCache(max int) *planCache {
	if max < 1 {
		max = 1
	}
	return &planCache{max: max, ll: list.New(), byKey: make(map[uint64]*list.Element, max)}
}

// get returns the cached plan for (key, sig), promoting it to most
// recently used. A key hit whose stored signature differs is a hash
// collision and reads as a miss.
func (c *planCache) get(key uint64, sig string) (json.RawMessage, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.byKey[key]
	if !ok {
		return nil, false
	}
	ent := e.Value.(*cacheEntry)
	if ent.sig != sig {
		return nil, false
	}
	c.ll.MoveToFront(e)
	return ent.plan, true
}

// put inserts (or refreshes) a plan, evicting from the LRU tail beyond
// capacity.
func (c *planCache) put(key uint64, sig string, plan json.RawMessage) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.byKey[key]; ok {
		ent := e.Value.(*cacheEntry)
		ent.sig, ent.plan = sig, plan
		c.ll.MoveToFront(e)
		return
	}
	c.byKey[key] = c.ll.PushFront(&cacheEntry{key: key, sig: sig, plan: plan})
	for c.ll.Len() > c.max {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.byKey, tail.Value.(*cacheEntry).key)
	}
}

// len returns the current entry count.
func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// snapshot returns the entries oldest-first, so replaying them in order
// through put reconstructs the same LRU order.
func (c *planCache) snapshot() []cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]cacheEntry, 0, c.ll.Len())
	for e := c.ll.Back(); e != nil; e = e.Prev() {
		ent := e.Value.(*cacheEntry)
		out = append(out, cacheEntry{key: ent.key, sig: ent.sig, plan: ent.plan})
	}
	return out
}

// Plan-cache journal: the checkpoint journal's CRC-framed JSONL format
// (via the engine's exported framed codec), one header record followed
// by one record per plan, oldest-first. The journal is written whole
// through engine.WriteFileAtomic at drain, and replayed at startup so
// a restarted daemon answers repeated requests from cache with
// byte-identical plans.

const planJournalVersion = 1

// planJournalHeader identifies a plan-cache journal.
type planJournalHeader struct {
	Version int    `json:"version"`
	Tool    string `json:"tool"`
}

// planRecord is one journaled plan. The cache key is recomputed from the
// signature at load (a 64-bit int would lose precision through JSON
// number encoding anyway), so the journal carries only what cannot be
// derived.
type planRecord struct {
	Sig  string          `json:"sig"`
	Plan json.RawMessage `json:"plan"`
}

// save writes the cache to path through engine.WriteFileAtomic, creating
// the directory if needed: a crash leaves the previous journal or the
// new one, never a mix.
func (c *planCache) save(path string) error {
	entries := c.snapshot()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	err := engine.WriteFileAtomic(path, func(w io.Writer) error {
		write := func(kind string, rec interface{}) error {
			line, err := engine.EncodeFramed(kind, rec)
			if err != nil {
				return err
			}
			_, err = w.Write(line)
			return err
		}
		if err := write("h", planJournalHeader{Version: planJournalVersion, Tool: "wrsnd"}); err != nil {
			return err
		}
		for _, ent := range entries {
			if err := write("p", planRecord{Sig: ent.sig, Plan: ent.plan}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("daemon: plan-cache journal: %w", err)
	}
	return nil
}

// load warm-starts the cache from a journal written by save. A missing
// file is a cold start, not an error; a torn tail (the artifact of a
// crash mid-write, impossible for the atomic writer but cheap to
// tolerate) drops only the torn record; a journal from another tool or
// version is rejected. It returns how many plans were restored.
func (c *planCache) load(path string) (int, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	recs, _, err := engine.DecodeFramed(data)
	if err != nil {
		return 0, fmt.Errorf("daemon: plan-cache journal %s: %w", path, err)
	}
	if len(recs) == 0 {
		return 0, nil
	}
	if recs[0].Kind != "h" {
		return 0, fmt.Errorf("daemon: plan-cache journal %s: first record is %q, not a header", path, recs[0].Kind)
	}
	var hdr planJournalHeader
	if err := json.Unmarshal(recs[0].Rec, &hdr); err != nil {
		return 0, fmt.Errorf("daemon: plan-cache journal %s: header: %w", path, err)
	}
	if hdr.Version != planJournalVersion || hdr.Tool != "wrsnd" {
		return 0, fmt.Errorf("daemon: plan-cache journal %s: header %+v does not match wrsnd version %d",
			path, hdr, planJournalVersion)
	}
	restored := 0
	for _, rec := range recs[1:] {
		if rec.Kind != "p" {
			return 0, fmt.Errorf("daemon: plan-cache journal %s: unknown record kind %q", path, rec.Kind)
		}
		var p planRecord
		if err := json.Unmarshal(rec.Rec, &p); err != nil {
			return 0, fmt.Errorf("daemon: plan-cache journal %s: plan record: %w", path, err)
		}
		c.put(model.CanonicalKey(p.Sig), p.Sig, p.Plan)
		restored++
	}
	return restored, nil
}
