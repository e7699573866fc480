package core

import (
	"gaugur/internal/features"
	"gaugur/internal/obs/trace"
	"gaugur/internal/sim"
)

// Sample is one labeled observation derived from a measured colocation, in
// terms of one target game (Section 3.5: a colocation of k games yields k
// samples per model).
type Sample struct {
	// RMX/CMX are the model input vectors; RMY is the measured
	// degradation ratio (retained fraction), CMY is 1 if measured FPS
	// met the QoS floor.
	RMX, CMX []float64
	RMY      float64
	CMY      float64

	// Size is the colocation size, kept for the per-size breakdowns of
	// Figures 7b and 8c.
	Size int
	// MeasuredFPS and SoloFPS let experiments reconstruct frame rates.
	MeasuredFPS float64
	SoloFPS     float64
	// Coloc and Index identify the originating colocation and the target
	// position within it, so baseline methodologies can be scored on
	// exactly the same measured outcomes.
	Coloc Colocation
	Index int
}

// SampleSet is a collection of samples with helpers to slice them into the
// matrices the ml package expects.
type SampleSet struct {
	Samples []Sample
	// QoS is the frame-rate floor the CM labels were generated with.
	QoS float64
}

// Len returns the number of samples.
func (s *SampleSet) Len() int { return len(s.Samples) }

// RMMatrices returns the regression design matrix and targets.
func (s *SampleSet) RMMatrices() ([][]float64, []float64) {
	x := make([][]float64, len(s.Samples))
	y := make([]float64, len(s.Samples))
	for i, sm := range s.Samples {
		x[i] = sm.RMX
		y[i] = sm.RMY
	}
	return x, y
}

// CMMatrices returns the classification design matrix and {0,1} labels.
func (s *SampleSet) CMMatrices() ([][]float64, []float64) {
	x := make([][]float64, len(s.Samples))
	y := make([]float64, len(s.Samples))
	for i, sm := range s.Samples {
		x[i] = sm.CMX
		y[i] = sm.CMY
	}
	return x, y
}

// Head returns a SampleSet over the first n samples (shared backing).
func (s *SampleSet) Head(n int) *SampleSet {
	if n > len(s.Samples) {
		n = len(s.Samples)
	}
	if n < 0 {
		n = 0
	}
	return &SampleSet{Samples: s.Samples[:n], QoS: s.QoS}
}

// Metric selects which frame-rate statistic labels the training samples.
type Metric int

const (
	// MetricMean labels with the window-averaged frame rate (the
	// paper's default).
	MetricMean Metric = iota
	// MetricMin labels with the worst co-peaking frame rate (Section
	// 7's conservative mechanism). Pair it with a Conservative
	// profiler so features and labels describe the same regime.
	MetricMin
)

// CollectSamples measures every colocation on the lab server and expands it
// into per-game training samples for both models, labeled against the given
// QoS floor. enc must match the profiles' K.
func (l *Lab) CollectSamples(colocs []Colocation, qos float64, encK int) *SampleSet {
	return l.CollectSamplesMetric(colocs, qos, encK, MetricMean)
}

// CollectSamplesMetric is CollectSamples with an explicit labeling metric.
// The returned samples appear in input order (colocation by colocation,
// target index within each); each colocation's measurement noise derives
// from its list position.
func (l *Lab) CollectSamplesMetric(colocs []Colocation, qos float64, encK int, metric Metric) *SampleSet {
	enc := newEncoder(encK)
	var root trace.Root
	l.Tracer.StartRoot(&root, 0, "collect-samples")
	set := &SampleSet{QoS: qos, Samples: make([]Sample, 0, 3*len(colocs))}
	for ci, c := range colocs {
		start := l.Tracer.Now()
		samples := l.colocSamples(enc, c, ci, qos, metric)
		root.Child(0, "measure-coloc", start, l.Tracer.Now(),
			trace.Int("index", ci), trace.Int("size", c.Size()), trace.Int("samples", len(samples)))
		set.Samples = append(set.Samples, samples...)
	}
	root.End(trace.Int("colocations", len(colocs)), trace.Int("samples", set.Len()))
	return set
}

// colocSamples measures one colocation on a task server derived from its
// list position and expands it into per-game samples.
func (l *Lab) colocSamples(enc features.Encoder, c Colocation, ci int, qos float64, metric Metric) []Sample {
	srv := l.Server.TaskServer("collect-coloc", int64(ci))
	var fps []float64
	if metric == MetricMin {
		stats := srv.MeasureColocationStats(l.Instances(c))
		fps = make([]float64, len(stats))
		for i, st := range stats {
			fps[i] = st.Min
		}
	} else {
		fps = srv.MeasureColocation(l.Instances(c))
	}
	members := l.Members(c)
	out := make([]Sample, 0, len(c))
	for i := range c {
		target := members[i]
		others := append(members[:i:i], members[i+1:]...)
		solo := target.Profile.SoloFPS(target.Res)
		label := 0.0
		if fps[i] >= qos {
			label = 1
		}
		out = append(out, Sample{
			RMX:         enc.RM(target, others),
			CMX:         enc.CM(qos, target, others),
			RMY:         sim.Degradation(fps[i], solo),
			CMY:         label,
			Size:        c.Size(),
			MeasuredFPS: fps[i],
			SoloFPS:     solo,
			Coloc:       c,
			Index:       i,
		})
	}
	return out
}
