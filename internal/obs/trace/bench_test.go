package trace

import "testing"

// BenchmarkDecisionTrace measures the trace RunOnline records per kept
// placement decision: a root with a place-batch child and its score and
// commit grandchildren, all recorded from stamps, then committed.
func BenchmarkDecisionTrace(b *testing.B) {
	benchDecisionTrace(b, New(Config{Seed: 1}))
}

// BenchmarkDecisionTraceManualClock is the same sequence with a fixed
// clock, isolating bookkeeping cost from monotonic clock reads.
func BenchmarkDecisionTraceManualClock(b *testing.B) {
	var now int64
	benchDecisionTrace(b, New(Config{Seed: 1, Clock: func() int64 { now += 1000; return now }}))
}

func benchDecisionTrace(b *testing.B, tr *Tracer) {
	var root Root
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.StartRoot(&root, 0, "placement")
		start := tr.Now()
		commit := tr.Now()
		end := tr.Now()
		pb := root.Child(0, "place-batch", start, end, Int("arrivals", 1))
		root.Child(pb, "score", start, commit, Int("shards", 4), Int("probes", 40), Bool("escape", false))
		root.Child(pb, "commit", commit, end, Int("shard", 2), Int("server", 7), Int("session", i))
		root.EndAt(tr.Now(), Int("game", 3), String("outcome", "placed"), Int("server", 7), Int("session", i))
	}
}
