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
	s.TransformBatch(x, 1, dst[:len(x)])
	return dst
}

// TransformBatch maps batch samples laid end to end in xs into the unit
// range, transposed into the feature-major slab dst (dst[i*batch+s]),
// as Scaler.TransformBatch does.
func (s *MinMaxScaler) TransformBatch(xs []float64, batch int, dst []float64) {
	stride, n := len(xs)/batch, len(dst)/batch
	for i, lo := range s.lo[:n] {
		sc, row := s.scale[i], dst[i*batch:][:batch]
		for k := range row {
			row[k] = (xs[k*stride+i] - lo) * sc
		}
	}
}

// Inverse maps a unit-range vector back to the original space into dst
// (allocated when nil).
func (s *MinMaxScaler) Inverse(z, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(z))
	}
	s.InverseBatch(z, 1, dst[:len(z)])
	return dst
}

// InverseBatch maps the feature-major slab z back to the original space,
// writing the samples end to end into dst, as Scaler.InverseBatch does.
func (s *MinMaxScaler) InverseBatch(z []float64, batch int, dst []float64) {
	n := len(z) / batch
	for i := 0; i < n; i++ {
		sc, lo, row := s.scale[i], s.lo[i], z[i*batch:][:batch]
		for k, v := range row {
			dst[k*n+i] = v/sc + lo
		}
	}
}
