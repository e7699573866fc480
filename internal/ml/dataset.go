// Package ml is a from-scratch, stdlib-only machine-learning library
// implementing the algorithms the GAugur paper uses to build its prediction
// models: CART decision trees (DTC/DTR), random forests (RF), gradient
// boosted trees (GBDT/GBRT), support vector machines (SVC/SVR), plus the
// ordinary/ridge least squares and nonlinear least squares needed by the
// SMiTe and Sigmoid baselines.
//
// Regressors predict float64 targets; classifiers predict binary labels in
// {0, 1} and expose a positive-class probability. All models are
// deterministic given their Seed.
//
// Tree ensembles whose deepest tree is at most six edges (the boosted
// models GAugur serves) also lower into a CompiledForest, a branch-free
// batched kernel that reproduces their Predict bit for bit; deeper CARTs
// and forests answer through their own tree walk.
package ml

import (
	"errors"
	"fmt"
	"math/rand"
)

// Dataset is a design matrix with one target per row. For classification,
// targets are 0 or 1.
type Dataset struct {
	X [][]float64
	Y []float64
}

// NewDataset wraps the given matrix and targets after validating shapes.
func NewDataset(x [][]float64, y []float64) (*Dataset, error) {
	if len(x) != len(y) {
		return nil, fmt.Errorf("ml: %d rows but %d targets", len(x), len(y))
	}
	if len(x) == 0 {
		return nil, errors.New("ml: empty dataset")
	}
	w := len(x[0])
	for i, row := range x {
		if len(row) != w {
			return nil, fmt.Errorf("ml: row %d has %d features, want %d", i, len(row), w)
		}
	}
	return &Dataset{X: x, Y: y}, nil
}

// Len returns the number of rows.
func (d *Dataset) Len() int { return len(d.X) }

// Features returns the number of columns.
func (d *Dataset) Features() int {
	if len(d.X) == 0 {
		return 0
	}
	return len(d.X[0])
}

// Clone deep-copies the dataset.
func (d *Dataset) Clone() *Dataset {
	x := make([][]float64, len(d.X))
	for i, row := range d.X {
		x[i] = append([]float64(nil), row...)
	}
	return &Dataset{X: x, Y: append([]float64(nil), d.Y...)}
}

// Shuffle permutes rows in place using the given seed.
func (d *Dataset) Shuffle(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(d.X), func(i, j int) {
		d.X[i], d.X[j] = d.X[j], d.X[i]
		d.Y[i], d.Y[j] = d.Y[j], d.Y[i]
	})
}

// Head returns a view of the first n rows (shared backing arrays).
func (d *Dataset) Head(n int) *Dataset {
	if n > d.Len() {
		n = d.Len()
	}
	if n < 0 {
		n = 0
	}
	return &Dataset{X: d.X[:n], Y: d.Y[:n]}
}

// Split returns views of the first n rows and the remainder.
func (d *Dataset) Split(n int) (train, test *Dataset) {
	if n < 0 {
		n = 0
	}
	if n > d.Len() {
		n = d.Len()
	}
	return &Dataset{X: d.X[:n], Y: d.Y[:n]}, &Dataset{X: d.X[n:], Y: d.Y[n:]}
}

// Regressor is a model predicting a continuous target.
type Regressor interface {
	Fit(x [][]float64, y []float64) error
	Predict(x []float64) float64
}

// Classifier is a binary {0,1} model that also exposes the positive-class
// probability (used to compare CM against thresholded RM predictions).
type Classifier interface {
	Fit(x [][]float64, y []float64) error
	PredictProb(x []float64) float64
	PredictClass(x []float64) int
}

// Standardizer rescales features to zero mean and unit variance; SVMs are
// scale-sensitive so they standardize internally.
type Standardizer struct {
	Mean  []float64
	Scale []float64
}

// FitStandardizer computes column means and standard deviations. Columns
// with zero variance get scale 1 so they pass through unchanged.
func FitStandardizer(x [][]float64) *Standardizer {
	if len(x) == 0 {
		return &Standardizer{}
	}
	w := len(x[0])
	s := &Standardizer{Mean: make([]float64, w), Scale: make([]float64, w)}
	for j := 0; j < w; j++ {
		sum := 0.0
		for i := range x {
			sum += x[i][j]
		}
		mean := sum / float64(len(x))
		varsum := 0.0
		for i := range x {
			d := x[i][j] - mean
			varsum += d * d
		}
		sd := varsum / float64(len(x))
		if sd > 0 {
			sd = sqrt(sd)
		}
		if sd == 0 {
			sd = 1
		}
		s.Mean[j] = mean
		s.Scale[j] = sd
	}
	return s
}

// Transform returns a standardized copy of one row.
func (s *Standardizer) Transform(row []float64) []float64 {
	if len(s.Mean) == 0 {
		return append([]float64(nil), row...)
	}
	out := make([]float64, len(row))
	for j := range row {
		out[j] = (row[j] - s.Mean[j]) / s.Scale[j]
	}
	return out
}

// TransformAll standardizes every row into a new matrix.
func (s *Standardizer) TransformAll(x [][]float64) [][]float64 {
	out := make([][]float64, len(x))
	for i := range x {
		out[i] = s.Transform(x[i])
	}
	return out
}
