package nn

// MinMaxScaler maps feature vectors into [0,1] per dimension using the
// training-set range, the normalization the original USAD uses so its
// sigmoid-bounded decoders can cover the data. Values outside the training
// range map outside [0,1] linearly, which the bounded decoder cannot
// reach — exactly the saturation that makes USAD's adversarial score spike
// on out-of-range anomalies.
type MinMaxScaler struct {
	lo    []float64
	scale []float64 // 1/(hi-lo)
}

// NewMinMaxScaler returns an identity-range scaler of the given dimension.
func NewMinMaxScaler(dim int) *MinMaxScaler {
	s := &MinMaxScaler{lo: make([]float64, dim), scale: make([]float64, dim)}
	for i := range s.scale {
		s.scale[i] = 1
	}
	return s
}

// Fit estimates per-dimension ranges from the training set. Constant
// dimensions get unit scale.
func (s *MinMaxScaler) Fit(set [][]float64) {
	if len(set) == 0 {
		return
	}
	dim := len(s.lo)
	hi := make([]float64, dim)
	first := true
	for _, x := range set {
		if len(x) != dim {
			continue
		}
		if first {
			copy(s.lo, x)
			copy(hi, x)
			first = false
			continue
		}
		for i, v := range x {
			if v < s.lo[i] {
				s.lo[i] = v
			}
			if v > hi[i] {
				hi[i] = v
			}
		}
	}
	for i := range s.scale {
		r := hi[i] - s.lo[i]
		if r < 1e-8 {
			s.scale[i] = 1
		} else {
			s.scale[i] = 1 / r
		}
	}
}

// Transform maps x into the unit range into dst (allocated when nil).
func (s *MinMaxScaler) Transform(x, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(x))
	}
	for i, v := range x {
		dst[i] = (v - s.lo[i]) * s.scale[i]
	}
	return dst
}

// Inverse maps a unit-range vector back to the original space into dst
// (allocated when nil).
func (s *MinMaxScaler) Inverse(z, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(z))
	}
	for i, v := range z {
		dst[i] = v/s.scale[i] + s.lo[i]
	}
	return dst
}

// Clone returns a deep copy.
func (s *MinMaxScaler) Clone() *MinMaxScaler {
	c := &MinMaxScaler{lo: make([]float64, len(s.lo)), scale: make([]float64, len(s.scale))}
	copy(c.lo, s.lo)
	copy(c.scale, s.scale)
	return c
}
