package nn

import "math"

// Scaler standardizes feature vectors with per-dimension mean and standard
// deviation estimated from a training set. Models refresh their scaler at
// every Fit, so the normalization is part of the model parameters θ_model
// and adapts together with the weights after concept drift.
type Scaler struct {
	mean []float64
	std  []float64
}

// NewScaler returns an identity scaler for the given dimensionality.
func NewScaler(dim int) *Scaler {
	s := &Scaler{mean: make([]float64, dim), std: make([]float64, dim)}
	for i := range s.std {
		s.std[i] = 1
	}
	return s
}

// Fit estimates per-dimension moments from the training set. Dimensions
// with (near-)zero variance get unit scale so Transform stays finite.
func (s *Scaler) Fit(set [][]float64) {
	if len(set) == 0 {
		return
	}
	dim := len(s.mean)
	for i := range s.mean {
		s.mean[i] = 0
	}
	n := 0
	for _, x := range set {
		if len(x) != dim {
			continue
		}
		n++
		for i, v := range x {
			s.mean[i] += v
		}
	}
	if n == 0 {
		return
	}
	inv := 1 / float64(n)
	for i := range s.mean {
		s.mean[i] *= inv
	}
	for i := range s.std {
		s.std[i] = 0
	}
	for _, x := range set {
		if len(x) != dim {
			continue
		}
		for i, v := range x {
			d := v - s.mean[i]
			s.std[i] += d * d
		}
	}
	for i := range s.std {
		s.std[i] = math.Sqrt(s.std[i] * inv)
		if s.std[i] < 1e-8 {
			s.std[i] = 1
		}
	}
}

// Transform standardizes x into dst (allocated when nil) and returns dst.
func (s *Scaler) Transform(x, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(x))
	}
	for i, v := range x {
		dst[i] = (v - s.mean[i]) / s.std[i]
	}
	return dst
}

// Inverse maps a standardized vector back to the original space into dst
// (allocated when nil).
func (s *Scaler) Inverse(z, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(z))
	}
	for i, v := range z {
		dst[i] = v*s.std[i] + s.mean[i]
	}
	return dst
}

// InverseSub maps a standardized vector back using the trailing part of
// the scaler's moments (offset elements in), for models whose output
// covers only the final rows of the feature vector.
func (s *Scaler) InverseSub(z, dst []float64, offset int) []float64 {
	if dst == nil {
		dst = make([]float64, len(z))
	}
	for i, v := range z {
		dst[i] = v*s.std[offset+i] + s.mean[offset+i]
	}
	return dst
}

// Clone returns a deep copy.
func (s *Scaler) Clone() *Scaler {
	c := &Scaler{mean: make([]float64, len(s.mean)), std: make([]float64, len(s.std))}
	copy(c.mean, s.mean)
	copy(c.std, s.std)
	return c
}
