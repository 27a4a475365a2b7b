package nn

import "math"

// Loss functions used by the cost models. Cost targets (latency,
// throughput) are regressed in log space, where Huber loss keeps extreme
// backpressure outliers from dominating the gradient.

// Huber returns the Huber loss with threshold delta and its derivative
// w.r.t. pred. Quadratic within |pred−target| ≤ delta, linear outside.
func Huber(pred, target, delta float64) (loss, grad float64) {
	d := pred - target
	if math.Abs(d) <= delta {
		return 0.5 * d * d, d
	}
	if d > 0 {
		return delta * (math.Abs(d) - float64(0.5*delta)), delta
	}
	return delta * (math.Abs(d) - float64(0.5*delta)), -delta
}
