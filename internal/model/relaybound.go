package model

import (
	"fmt"
	"math"
)

// relayLambdaFrac sets the bound's multiplier on the shared budget:
// λ = relayLambdaFrac·limit/budget. Any λ ≥ 0 gives a valid bound; with
// the chords capped at ecap this one runs the exact-small pool and Figs.
// 7a and 7b fastest (0.1 to 0.5 were measured; EXPERIMENTS.md).
const relayLambdaFrac = 0.25

// relayMarginScale sets the bound's float margin at (n+2)·2⁻⁴⁰ of the
// magnitude of its terms, the same scale as patchBound's; DESIGN.md §3.4
// derives the error it covers.
const relayMarginScale = 0x1p-40

// relayScratch holds PruneByRelayBound's per-evaluator tables and
// buffers, built on first use.
type relayScratch struct {
	scale float64   // (n+2)·relayMarginScale
	hasOH bool      // the problem charges per-post overheads
	oh    []float64 // per post: its overhead, 0 without overheads
	minTx []float64 // per post: its cheapest out-edge's tx
	lo    []float64 // per post: a float below rate·minTx
	ecap  []float64 // per post: a float above the most energy any tree makes it spend
	inv   []float64 // inv[x] = 1/eff(x) for 1 <= x <= the problem's nodes
	beta  []float64 // per post: the SPT's inverse efficiency
	rxb   []float64 // per post: rx·beta
	hop   []float64 // per post: minTx·beta, below its every hop's weight
	dist  []float64
	ids   []int32 // unsettled posts

	// chords holds every post's chord per (capEach, budget), priced at
	// the limit the slot is stamped with.
	chords map[relayKey]*relaySlot
}

// relayKey names a chord-table slot.
type relayKey struct{ capEach, budget int }

// relaySlot is one (capEach, budget) slot of the chord table: the chord
// of every post, were it undecided, at the limit whose bits are stamped.
type relaySlot struct {
	limit uint64
	c     []relayChord
}

// relayChord is an undecided post's part of the bound: the chord's slope
// s, its terms in rest and in mag, or outright when the post alone
// spends the limit in every tree.
type relayChord struct {
	s, rest, mag float64
	outright     bool
}

// relay returns the evaluator's relay-bound scratch, building it on
// first use.
func (ev *IncrementalEvaluator) relay() (*relayScratch, error) {
	if rb := ev.rb; rb != nil {
		return rb, nil
	}
	n, c, p := ev.n, ev.c, ev.p
	rb := &relayScratch{
		scale:  float64(float64(n+2) * relayMarginScale),
		hasOH:  p.HasOverhead(),
		oh:     make([]float64, n),
		minTx:  make([]float64, n),
		lo:     make([]float64, n),
		ecap:   make([]float64, n),
		inv:    make([]float64, p.Nodes+1),
		beta:   make([]float64, n),
		rxb:    make([]float64, n),
		hop:    make([]float64, n),
		dist:   make([]float64, n),
		ids:    make([]int32, n),
		chords: make(map[relayKey]*relaySlot),
	}
	// A post u relays at most the whole rate R through its parent edge,
	// so in every tree E_u = tx·F_u + rx·(F_u − r_u) ≤ R·maxTx + rx·(R − r_u).
	total := ev.rateTotal
	for u := 0; u < n; u++ {
		if rb.hasOH {
			rb.oh[u] = p.Overhead(u)
		}
		minTx, maxTx := inf, 0.0
		for os := c.outOff[u]; os < c.outOff[u+1]; os++ {
			minTx = min(minTx, c.outTx[os])
			maxTx = max(maxTx, c.outTx[os])
		}
		if minTx < inf {
			rb.minTx[u] = minTx
			rb.lo[u] = float64(float64(ev.rates[u]*minTx) * (1 - rb.scale))
		}
		ecap := float64(total*maxTx) + float64(ev.rx*(total-ev.rates[u]))
		rb.ecap[u] = float64(ecap * (1 + rb.scale))
	}
	rb.inv[0] = inf
	for x := 1; x < len(rb.inv); x++ {
		e, err := ev.netEff(x)
		if err != nil {
			return nil, err
		}
		rb.inv[x] = 1 / e
	}
	ev.rb = rb
	return rb, nil
}

// slot returns the chords for (capEach, budget) at limit, pricing them
// when the slot is new or was priced at another limit. lam and hi are
// the limit's multiplier and interval end.
func (rb *relayScratch) slot(capEach, budget int, limit, lam, hi float64) []relayChord {
	key := relayKey{capEach, budget}
	sl := rb.chords[key]
	if sl == nil {
		sl = &relaySlot{c: make([]relayChord, len(rb.lo))}
		rb.chords[key] = sl
	} else if sl.limit == math.Float64bits(limit) {
		return sl.c
	}
	sl.limit = math.Float64bits(limit)
	for u := range sl.c {
		sl.c[u] = rb.chord(u, capEach, lam, hi)
	}
	return sl.c
}

// chord prices post u's chord of g_u over [lo_u, min(hi, ecap_u)]; a
// post whose lo_u reaches hi is outright, and an interval the cap
// closes gets the flat chord at lo_u.
func (rb *relayScratch) chord(u, capEach int, lam, hi float64) relayChord {
	inv, lu, oh := rb.inv, rb.lo[u], rb.oh[u]
	if !(hi > lu) {
		return relayChord{outright: true}
	}
	hu := min(hi, rb.ecap[u])
	el, eh := lu+oh, hu+oh
	gl, gh := inf, inf
	for x := 1; x <= capEach; x++ {
		lx := float64(lam * float64(x))
		gl = min(gl, float64(el*inv[x])+lx)
		gh = min(gh, float64(eh*inv[x])+lx)
	}
	if !(hu > lu) {
		return relayChord{rest: gl, mag: gl}
	}
	s := (gh - gl) / (hu - lu)
	if !(s > 0) {
		s = 0
	}
	shi := float64(s * hu)
	return relayChord{s: s, rest: min(gl-float64(s*lu), gh-shi), mag: gh + shi}
}

// PruneByRelayBound reports whether no completion of a branch-and-bound
// node can cost less than limit+boundedSlack, judged without applying
// any move. The node fixes counts[u] for every decided post; a zero
// count marks an undecided post. Its completions give each undecided
// post between 1 and capEach nodes, budget in total. A true return
// guarantees every such completion's evaluated cost is at least
// limit+boundedSlack, so no completion could beat an incumbent the
// limit came from. It reads no committed state and leaves the evaluator
// and any pending probe untouched.
//
// The bound is Lagrangian in the shared budget. For any λ ≥ 0 an
// undecided post u with energy E_u pays at least g_u(E_u) − λ·m_u, with
// g_u(E) = min over 1 ≤ x ≤ capEach of (E + O_u)/eff(x) + λx, and the
// λ·m_u terms sum to λ·budget. g_u is concave, so on [lo_u, hi_u] it
// lies above its chord a_u + s_u·E; lo_u is u's own report at its
// cheapest hop, and hi_u is the lower of (limit+boundedSlack)·eff(capEach),
// since a post spending more already costs its completion the limit,
// and ecap_u = R·maxTx_u + rx·(R − r_u), the most any tree can make u
// spend with R the total rate. The chord is linear in the post
// energies, so its minimum over routing trees is one shortest-path tree
// in which decided posts keep 1/eff(m_u) and undecided posts weigh s_u:
//
//	LB = SPT + Σ_D O_u/eff(m_u) + Σ_U a_u − λ·budget.
//
// The tree is settled by scan-min, and the test is repeated as vertices
// settle, so a doomed node stops early. It asks for LB, less a float
// margin of (n+2)·2⁻⁴⁰ of the terms' magnitude, to reach the
// threshold; a post whose lo_u reaches the limit's interval end proves
// the node outright. The chords depend only on (capEach, budget, limit),
// so each is priced once per limit into a table and read back in the
// same order, which leaves every sum bit-identical. DESIGN.md §3.4 has
// the proof and the margin's derivation.
func (ev *IncrementalEvaluator) PruneByRelayBound(counts []int, capEach, budget int, limit float64) (bool, error) {
	n, c := ev.n, ev.c
	if len(counts) != n {
		return false, fmt.Errorf("model: deployment covers %d posts, want %d", len(counts), n)
	}
	rb, err := ev.relay()
	if err != nil {
		return false, err
	}
	inv := rb.inv
	if capEach < 1 || capEach >= len(inv) {
		return false, fmt.Errorf("model: relay bound: %d nodes per post is outside 1..%d", capEach, len(inv)-1)
	}
	thr := limit + boundedSlack
	if !(thr < inf) {
		return false, nil
	}
	lam := float64(relayLambdaFrac*limit) / float64(budget)
	if !(lam > 0) {
		lam = 0
	}
	hi := float64(float64(thr/inv[capEach]) * (1 + rb.scale))
	beta, oh := rb.beta, rb.oh
	chords := rb.slot(capEach, budget, limit, lam, hi)
	// rest collects the routing-independent terms, mag their magnitude
	// (the chords are weighed at their interval's top, where they are
	// largest).
	lamB := float64(lam * float64(budget))
	rest, mag := -lamB, lamB
	undecided, outright := 0, false
	for u, mu := range counts {
		if mu < 0 || mu >= len(inv) {
			return false, fmt.Errorf("model: post %d holds %d nodes", u, mu)
		}
		if mu > 0 {
			b := inv[mu]
			beta[u] = b
			if rb.hasOH {
				o := float64(oh[u] * b)
				rest += o
				mag += o
			}
			continue
		}
		undecided++
		ch := &chords[u]
		if ch.outright {
			outright = true // u alone spends the limit in every tree
			continue
		}
		rest += ch.rest
		mag += ch.mag
		beta[u] = ch.s
	}
	if undecided == 0 || budget < undecided {
		return false, fmt.Errorf("model: relay bound: %d undecided posts cannot share %d nodes", undecided, budget)
	}
	if outright {
		ev.stats.RelayPrunes++
		return true, nil
	}
	// The test is part·(1 − scale) + rest − scale·mag ≥ thr, part a
	// lower bound on the tree's cost.
	f := 1 - rb.scale
	base := rest - float64(rb.scale*mag)

	// Scan-min Dijkstra from the BS over the in-rows, weights
	// tx·beta[u] + rx·beta[v]. Settling the BS seeds the posts; the
	// unsettled posts are ids[:left], swap-removed as they settle.
	rxb, dist, hop, ids := rb.rxb, rb.dist, rb.hop, rb.ids
	for u := 0; u < n; u++ {
		b := beta[u]
		rxb[u] = float64(ev.rx * b)
		hop[u] = float64(rb.minTx[u] * b)
		dist[u] = inf
		ids[u] = int32(u)
	}
	bs := ev.bs
	for s := c.inOff[bs]; s < c.inOff[bs+1]; s++ {
		u := c.inFrom[s]
		dist[u] = float64(c.inTx[s] * beta[u])
	}
	// Each pass finds the next vertex to settle and tests a lower bound
	// on the tree's cost: settled posts at their distance, the others
	// at their tentative distance or, if lower, the last settled
	// distance plus their cheapest hop, below any offer still to come.
	rates := ev.rates
	var settledSum, dlast float64
	for left := n; left > 0; {
		j, dv := -1, inf
		part := settledSum
		for i, u := range ids[:left] {
			du := dist[u]
			if du < dv {
				j, dv = i, du
			}
			part += float64(rates[u] * min(du, dlast+hop[u]))
		}
		if float64(part*f)+base >= thr {
			ev.stats.RelayPrunes++
			return true, nil
		}
		if j < 0 {
			return false, nil // the rest is unreachable
		}
		v := int(ids[j])
		left--
		ids[j] = ids[left]
		settledSum += float64(rates[v] * dv)
		dlast = dv
		bv := rxb[v]
		for s := c.inOff[v]; s < c.inOff[v+1]; s++ {
			u := int(c.inFrom[s])
			if nd := dv + (float64(c.inTx[s]*beta[u]) + bv); nd < dist[u] {
				dist[u] = nd
			}
		}
	}
	if float64(settledSum*f)+base >= thr {
		ev.stats.RelayPrunes++
		return true, nil
	}
	return false, nil
}
