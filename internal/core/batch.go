package core

import (
	"gaugur/internal/features"
	"gaugur/internal/ml"
)

// Batch prediction and the pooled scratch for the online path. Scoring
// loops — the dispatcher evaluating candidate placements, experiments
// sweeping a sample set — issue many RM/CM queries back to back. Every
// query method reuses one set of member/feature buffers drawn from the
// predictor's sync.Pool, so the steady-state path allocates nothing, and
// consecutive queries against the same colocation skip member
// re-resolution entirely. RM queries are additionally gathered into
// blocks of rmBlock (ml.EvalChunkSize, 16) and flushed through one
// ml.CompiledForest.EvalBatch call, which amortizes the compiled plan's
// memory traffic across the block. Values and metric increments are
// identical to the original allocating per-query path.

// BatchQuery names one (colocation, target index) degradation query.
type BatchQuery struct {
	Coloc Colocation
	Index int
}

// rmBlock is the blocked-evaluation gather width, matching the compiled
// kernel's chunk size so one flush is one tree-major pass.
const rmBlock = ml.EvalChunkSize

// predictScratch holds the buffers one query sequence reuses. Instances
// are recycled through Predictor.pool; cur memoizes the colocation whose
// members are currently resolved and is invalidated on every pool Get
// (the identity test below is by backing address, which could otherwise
// alias a freed-and-reallocated slice across pool cycles).
type predictScratch struct {
	members []features.Member
	others  []features.Member
	feat    []float64
	deg     []float64 // PredictTotalFPSBatch's per-member degradations
	cur     Colocation

	// Pending RM block: feature vectors (each with its own backing
	// array), destination indices, and the per-query gather stamps the
	// latency histogram is fed from when the block flushes. bn counts
	// gathered queries; bout receives the raw plan outputs.
	bx     [rmBlock][]float64
	bqi    [rmBlock]int
	bstart [rmBlock]int64
	bout   [rmBlock]float64
	bn     int
}

// getScratch draws a scratch from the pool (allocating only on first use
// per P) with the colocation memo and block state cleared.
func (p *Predictor) getScratch() *predictScratch {
	if s, _ := p.pool.Get().(*predictScratch); s != nil {
		s.cur = nil
		s.bn = 0
		return s
	}
	return &predictScratch{feat: make([]float64, 0, p.Enc.CMWidth())}
}

// putScratch returns a scratch for reuse.
func (p *Predictor) putScratch(s *predictScratch) { p.pool.Put(s) }

// sameColoc reports whether a and b are the same backing slice, the cheap
// identity test that lets consecutive queries share resolved members.
func sameColoc(a, b Colocation) bool {
	return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0]
}

// resolve fills s.members for c, skipping the work when c is the
// colocation already resolved.
func (s *predictScratch) resolve(p *Predictor, c Colocation) {
	if sameColoc(c, s.cur) {
		return
	}
	s.members = s.members[:0]
	for _, w := range c {
		s.members = append(s.members, features.NewMember(p.Profiles.Get(w.GameID), w.Res))
	}
	s.cur = c
}

// split returns the target member at idx and the remaining members packed
// into the reused others buffer.
func (s *predictScratch) split(idx int) (features.Member, []features.Member) {
	s.others = s.others[:0]
	for i, m := range s.members {
		if i != idx {
			s.others = append(s.others, m)
		}
	}
	return s.members[idx], s.others
}

// degradation answers one RM query exactly like the original
// Predictor.PredictDegradation, but from reused buffers and through the
// compiled plan when one is installed.
func (p *Predictor) degradation(s *predictScratch, c Colocation, idx int) float64 {
	p.met.predictions.Inc()
	start := p.met.stamp()
	defer p.met.since(p.met.latency, start)
	if len(c) == 1 {
		return 1
	}
	s.resolve(p, c)
	target, others := s.split(idx)
	s.feat = p.Enc.RMInto(s.feat, target, others)
	d := p.rmPredict(s.feat)
	if d < 0 {
		return 0
	}
	if d > 1 {
		return 1
	}
	return d
}

// gatherDeg queues one degradation query for blocked evaluation, writing
// the result to dst[qi] — immediately for singletons, at the next flush
// otherwise. Metric increments happen at gather time, in query order, so
// counters match the per-query path exactly.
func (p *Predictor) gatherDeg(s *predictScratch, c Colocation, idx, qi int, dst []float64) {
	p.met.predictions.Inc()
	if len(c) == 1 {
		start := p.met.stamp()
		dst[qi] = 1
		p.met.since(p.met.latency, start)
		return
	}
	s.bstart[s.bn] = p.met.stamp()
	s.resolve(p, c)
	target, others := s.split(idx)
	s.bx[s.bn] = p.Enc.RMInto(s.bx[s.bn], target, others)
	s.bqi[s.bn] = qi
	s.bn++
	if s.bn == rmBlock {
		p.flushDeg(s, dst)
	}
}

// flushDeg evaluates the pending block and stores each query's final
// degradation at its destination index. With a compiled plan the block
// goes through the tree-major EvalBatch kernel in one pass; uncompiled
// models fall back to the one-at-a-time path. Results are bit-identical
// either way.
func (p *Predictor) flushDeg(s *predictScratch, dst []float64) {
	if p.rmPlan != nil {
		out := p.rmPlan.EvalBatch(s.bout[:0], s.bx[:s.bn])
		for k := 0; k < s.bn; k++ {
			dst[s.bqi[k]] = p.rmFromRaw(out[k])
		}
	} else {
		for k := 0; k < s.bn; k++ {
			d := p.rmPredict(s.bx[k])
			if d < 0 {
				d = 0
			}
			if d > 1 {
				d = 1
			}
			dst[s.bqi[k]] = d
		}
	}
	for k := 0; k < s.bn; k++ {
		p.met.since(p.met.latency, s.bstart[k])
	}
	s.bn = 0
}

// PredictBatch answers every query with the RM degradation ratio, writing
// results into dst (grown when too small) and returning it. Values are
// identical to calling PredictDegradation per query.
func (p *Predictor) PredictBatch(qs []BatchQuery, dst []float64) []float64 {
	if cap(dst) < len(qs) {
		dst = make([]float64, len(qs))
	}
	dst = dst[:len(qs)]
	s := p.getScratch()
	for qi, q := range qs {
		p.gatherDeg(s, q.Coloc, q.Index, qi, dst)
	}
	p.flushDeg(s, dst)
	p.putScratch(s)
	return dst
}

// PredictFPSBatch fills dst with the predicted frame rate of every
// workload in c (Equation 2 solo estimate times RM degradation) — the
// per-index loop every scoring call site runs, answered from one buffer
// set. Values are identical to calling PredictFPS per index.
func (p *Predictor) PredictFPSBatch(c Colocation, dst []float64) []float64 {
	if cap(dst) < len(c) {
		dst = make([]float64, len(c))
	}
	dst = dst[:len(c)]
	s := p.getScratch()
	for i := range c {
		p.gatherDeg(s, c, i, i, dst)
	}
	p.flushDeg(s, dst)
	p.putScratch(s)
	for i := range c {
		solo := p.Profiles.Get(c[i].GameID).SoloFPS(c[i].Res)
		dst[i] = solo * dst[i]
	}
	return dst
}

// PredictTotalFPS sums the predicted frame rates of the colocation — the
// scorer shape the greedy dispatcher maximizes.
func (p *Predictor) PredictTotalFPS(c Colocation) float64 {
	var buf [8]float64
	s := 0.0
	for _, fps := range p.PredictFPSBatch(c, buf[:0]) {
		s += fps
	}
	return s
}

// PredictTotalFPSBatch scores many candidate server states in one pass:
// dst[i] receives the predicted total FPS of colocs[i]. Every member query
// of every colocation is gathered into the same blocked kernel stream, so
// a shard scoring its distinct candidate states pays one tree-major sweep
// instead of one predictor round-trip per state. Values are bit-identical
// to calling PredictTotalFPS per colocation: per-query results are
// independent of block packing, and each colocation's members are summed
// in index order either way.
func (p *Predictor) PredictTotalFPSBatch(colocs []Colocation, dst []float64) []float64 {
	if cap(dst) < len(colocs) {
		dst = make([]float64, len(colocs))
	}
	dst = dst[:len(colocs)]
	total := 0
	for _, c := range colocs {
		total += len(c)
	}
	if total == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return dst
	}
	s := p.getScratch()
	if cap(s.deg) < total {
		s.deg = make([]float64, total)
	}
	deg := s.deg[:total]
	qi := 0
	for _, c := range colocs {
		for i := range c {
			p.gatherDeg(s, c, i, qi, deg)
			qi++
		}
	}
	p.flushDeg(s, deg)
	qi = 0
	for ci, c := range colocs {
		sum := 0.0
		for i := range c {
			solo := p.Profiles.Get(c[i].GameID).SoloFPS(c[i].Res)
			sum += solo * deg[qi]
			qi++
		}
		dst[ci] = sum
	}
	p.putScratch(s)
	return dst
}
