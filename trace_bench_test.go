package gaugur_test

import (
	"testing"

	"gaugur/internal/obs"
	"gaugur/internal/obs/trace"
	"gaugur/internal/sched"
)

// traceAuditSink is a pure counting AuditSink for overhead measurement.
type traceAuditSink struct{ placed, observed, dropped int }

func (s *traceAuditSink) Placed(sid, game int, games []int) { s.placed++ }
func (s *traceAuditSink) Observed(sid int, fps float64)     { s.observed++ }
func (s *traceAuditSink) Dropped(sid int)                   { s.dropped++ }

// BenchmarkTraceOverhead measures the cost of full tracing + audit on the
// online scheduling loop, against the same workload BenchmarkObsOverhead
// uses. Compare the sub-benchmarks:
//
//	go test -bench BenchmarkTraceOverhead -benchtime 5x .
//
// The acceptance budget is <5% overhead for the traced variant over bare;
// TestTraceOverheadUnderBudget in internal/sched enforces it; this
// benchmark prints the numbers.
func BenchmarkTraceOverhead(b *testing.B) {
	b.Run("bare", func(b *testing.B) {
		runObsOverhead(b, func() *obs.Registry { return nil })
	})
	b.Run("traced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tracer := trace.New(trace.Config{Seed: 3})
			cfg := obsOverheadConfig(obs.New())
			cfg.Tracer = tracer
			cfg.Audit = &traceAuditSink{}
			res, err := sched.RunOnline(cfg, sched.GreedyPolicyTraced(obsOverheadScore, 4, tracer), obsOverheadEval, 60)
			if err != nil {
				b.Fatal(err)
			}
			if res.Completed == 0 || tracer.Store().Total() == 0 {
				b.Fatal("traced online loop recorded nothing")
			}
		}
	})
}
