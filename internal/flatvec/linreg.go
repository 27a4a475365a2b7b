package flatvec

import (
	"fmt"
	"math"

	"zerotune/internal/tensor"
)

// LinearRegression is a ridge regression over the flat vector, fitted in
// closed form via the normal equations. It predicts one target (log-space
// latency or throughput); train one instance per metric.
type LinearRegression struct {
	Weights tensor.Vector // Dim + 1 (bias last)
	Ridge   float64
}

// NewLinearRegression returns an unfitted model with the given ridge
// penalty (a small positive value keeps the normal equations well-posed).
func NewLinearRegression(ridge float64) *LinearRegression {
	if ridge <= 0 {
		ridge = 1e-6
	}
	return &LinearRegression{Ridge: ridge}
}

// Fit solves min ‖Xw − y‖² + ridge·‖w‖² for the augmented design matrix
// (bias column appended). X rows are flat vectors; y the log-space targets.
func (lr *LinearRegression) Fit(X []tensor.Vector, y []float64) error {
	if len(X) == 0 || len(X) != len(y) {
		return fmt.Errorf("flatvec: bad training set (%d rows, %d targets)", len(X), len(y))
	}
	d := len(X[0]) + 1 // + bias
	// Normal equations: (XᵀX + λI) w = Xᵀy.
	A := tensor.NewMatrix(d, d)
	b := tensor.NewVector(d)
	row := tensor.NewVector(d)
	for i, x := range X {
		if len(x) != d-1 {
			return fmt.Errorf("flatvec: row %d has width %d, want %d", i, len(x), d-1)
		}
		copy(row, x)
		row[d-1] = 1
		A.AddOuterInPlace(1, row, row)
		b.AxpyInPlace(y[i], row)
	}
	for i := 0; i < d; i++ {
		A.Set(i, i, A.At(i, i)+lr.Ridge)
	}
	w, err := solve(A, b)
	if err != nil {
		return err
	}
	lr.Weights = w
	return nil
}

// Predict returns the model output for one flat vector. It panics if the
// model is unfitted or widths mismatch.
func (lr *LinearRegression) Predict(x tensor.Vector) float64 {
	if len(lr.Weights) == 0 {
		panic("flatvec: predict on unfitted LinearRegression")
	}
	if len(x) != len(lr.Weights)-1 {
		panic(fmt.Sprintf("flatvec: input width %d, want %d", len(x), len(lr.Weights)-1))
	}
	s := lr.Weights[len(lr.Weights)-1] // bias
	for i, v := range x {
		s += float64(lr.Weights[i] * v)
	}
	return s
}

// solve performs Gaussian elimination with partial pivoting on a copy of A.
func solve(A *tensor.Matrix, b tensor.Vector) (tensor.Vector, error) {
	n := A.Rows
	if A.Cols != n || len(b) != n {
		return nil, fmt.Errorf("flatvec: solve shape mismatch")
	}
	M := A.Clone()
	y := b.Clone()
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(M.At(r, col)) > math.Abs(M.At(pivot, col)) {
				pivot = r
			}
		}
		if math.Abs(M.At(pivot, col)) < 1e-12 {
			return nil, fmt.Errorf("flatvec: singular system at column %d", col)
		}
		if pivot != col {
			for cc := 0; cc < n; cc++ {
				tmp := M.At(col, cc)
				M.Set(col, cc, M.At(pivot, cc))
				M.Set(pivot, cc, tmp)
			}
			y[col], y[pivot] = y[pivot], y[col]
		}
		inv := 1 / M.At(col, col)
		for r := col + 1; r < n; r++ {
			factor := M.At(r, col) * inv
			if factor == 0 {
				continue
			}
			for cc := col; cc < n; cc++ {
				M.Set(r, cc, M.At(r, cc)-float64(factor*M.At(col, cc)))
			}
			y[r] -= float64(factor * y[col])
		}
	}
	// Back substitution.
	x := tensor.NewVector(n)
	for r := n - 1; r >= 0; r-- {
		s := y[r]
		for cc := r + 1; cc < n; cc++ {
			s -= float64(M.At(r, cc) * x[cc])
		}
		x[r] = s / M.At(r, r)
	}
	return x, nil
}
