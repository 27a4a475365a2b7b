package loadgen

import (
	"fmt"
	"math"
)

// interarrival draws successive gaps of a unit-rate arrival process (mean
// interarrival 1). The offered rate and the diurnal envelope are applied
// afterwards by time-rescaling, so one sampler serves every rate a capacity
// search probes.
type interarrival interface {
	next() float64
}

// newInterarrival builds the sampler for kind at the given coefficient of
// variation, drawing uniforms from u.
func newInterarrival(kind ArrivalKind, cv float64, u *uniformStream) (interarrival, error) {
	switch kind {
	case ArrivalUniform:
		return constantGap{}, nil
	case ArrivalPoisson:
		return exponentialGap{u: u}, nil
	case ArrivalGamma:
		// Gamma(k, θ) has CV = 1/sqrt(k); mean kθ = 1 fixes θ.
		k := 1 / (cv * cv)
		return &gammaGap{u: u, shape: k, scale: 1 / k}, nil
	case ArrivalWeibull:
		k, err := weibullShapeForCV(cv)
		if err != nil {
			return nil, err
		}
		// Mean λΓ(1+1/k) = 1 fixes the scale λ.
		return weibullGap{u: u, shape: k, scale: 1 / math.Gamma(1+1/k)}, nil
	default:
		return nil, fmt.Errorf("loadgen: unknown arrival process %q", kind)
	}
}

type constantGap struct{}

func (constantGap) next() float64 { return 1 }

type exponentialGap struct{ u *uniformStream }

func (g exponentialGap) next() float64 {
	// 1-u keeps the argument in (0, 1]: Uniform returns [0, 1).
	return -math.Log(1 - g.u.next())
}

// gammaGap samples Gamma(shape, scale) gaps via Marsaglia–Tsang, with the
// standard k<1 boost. Normal draws come from Box–Muller over the same
// deterministic uniform stream, so the sequence is a pure function of the
// seed even though rejection consumes a variable number of uniforms.
type gammaGap struct {
	u     *uniformStream
	shape float64
	scale float64
}

func (g *gammaGap) next() float64 { return g.sample(g.shape) * g.scale }

func (g *gammaGap) sample(k float64) float64 {
	if k < 1 {
		// Gamma(k) = Gamma(k+1) * U^(1/k).
		u := 1 - g.u.next()
		return g.sample(k+1) * math.Pow(u, 1/k)
	}
	d := k - 1.0/3.0
	c := 1 / (3 * math.Sqrt(d))
	for {
		x := g.normal()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := 1 - g.u.next()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// normal is one standard-normal draw (Box–Muller, cosine branch).
func (g *gammaGap) normal() float64 {
	u1 := 1 - g.u.next()
	u2 := g.u.next()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// weibullGap samples Weibull(shape, scale) gaps by inversion.
type weibullGap struct {
	u     *uniformStream
	shape float64
	scale float64
}

func (g weibullGap) next() float64 {
	u := 1 - g.u.next()
	return g.scale * math.Pow(-math.Log(u), 1/g.shape)
}

// weibullShapeForCV inverts the Weibull CV(k) = sqrt(Γ(1+2/k)/Γ(1+1/k)² − 1)
// relation by bisection. CV is strictly decreasing in k, covering roughly
// (0.06, 15] over k ∈ [0.35, 20] — more than the plausible workload range.
func weibullShapeForCV(cv float64) (float64, error) {
	cvOf := func(k float64) float64 {
		g1 := math.Gamma(1 + 1/k)
		g2 := math.Gamma(1 + 2/k)
		return math.Sqrt(g2/(g1*g1) - 1)
	}
	lo, hi := 0.35, 20.0
	if cv > cvOf(lo) || cv < cvOf(hi) {
		return 0, fmt.Errorf("loadgen: weibull cv %g outside supported range [%.3f, %.3f]",
			cv, cvOf(hi), cvOf(lo))
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if cvOf(mid) > cv {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// envelope is the diurnal rate modulation rate(t) = rate·(1 + A·sin(2πt/P)).
// Arrivals are generated at unit rate and mapped through the inverse of the
// cumulative rate Λ(t) = ∫₀ᵗ rate(u) du (the time-rescaling theorem), which
// preserves the interarrival process's shape while bending its intensity.
type envelope struct {
	rate      float64
	amplitude float64
	period    float64 // seconds; ignored when amplitude == 0
}

// cumulative is Λ(t) in expected arrivals by time t (t in seconds).
func (e envelope) cumulative(t float64) float64 {
	if e.amplitude == 0 {
		return e.rate * t
	}
	w := 2 * math.Pi / e.period
	return e.rate * (t + e.amplitude/w*(1-math.Cos(w*t)))
}

// invert solves Λ(t) = target for t. Λ is strictly increasing (amplitude
// < 1), so bisection over a bracket grown from the mean-rate guess always
// converges; 64 halvings give sub-nanosecond precision on any bench-scale
// horizon.
func (e envelope) invert(target float64) float64 {
	if e.amplitude == 0 {
		return target / e.rate
	}
	hi := target / e.rate
	for e.cumulative(hi) < target {
		hi *= 2
		if hi > 1e12 {
			break
		}
	}
	lo := 0.0
	for i := 0; i < 64; i++ {
		mid := (lo + hi) / 2
		if e.cumulative(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}
