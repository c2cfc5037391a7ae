// Package statesync is the fixture for the statesync analyzer: types
// that participate in checkpointing must account for every field —
// referenced in the Save/Load path, or annotated transient with a
// reason.
package statesync

import (
	"bytes"
	"encoding/gob"
	"io"
)

// tracker has full field parity: two fields round-trip, the scratch
// buffer is declared transient.
type tracker struct {
	count int
	mean  float64
	buf   []float64 //streamad:transient scoring scratch rebuilt every step
}

func (t *tracker) Save() ([]byte, error) {
	var b bytes.Buffer
	enc := gob.NewEncoder(&b)
	if err := enc.Encode(t.count); err != nil {
		return nil, err
	}
	if err := enc.Encode(t.mean); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

func (t *tracker) Load(data []byte) error {
	dec := gob.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&t.count); err != nil {
		return err
	}
	return dec.Decode(&t.mean)
}

// leaky forgets state across its checkpoint round-trip.
type leaky struct {
	steps int
	seed  int64 // want `field leaky.seed is neither referenced in leaky's Save/Load path nor annotated`
	//streamad:transient
	tmp []float64 // want `field leaky.tmp: //streamad:transient annotation missing reason`
	//streamad:transient cached running total, recomputed on load
	total float64 // want `field leaky.total is marked //streamad:transient but is referenced by the state methods`
}

func (l *leaky) Save() ([]byte, error) {
	var b bytes.Buffer
	if err := l.encodeBody(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// encodeBody is reached from Save, so the fields it touches count as
// covered transitively.
func (l *leaky) encodeBody(w io.Writer) error {
	enc := gob.NewEncoder(w)
	if err := enc.Encode(l.steps); err != nil {
		return err
	}
	return enc.Encode(l.total)
}

func (l *leaky) Load(data []byte) error {
	dec := gob.NewDecoder(bytes.NewReader(data))
	return dec.Decode(&l.steps)
}

// moments checkpoints through the encoding.BinaryMarshaler pair; the
// method-name classes beyond Save/Load count too.
type moments struct {
	n    int
	m2   float64
	hits int // want `field moments.hits is neither referenced in moments's Save/Load path nor annotated`
}

func (m *moments) MarshalBinary() ([]byte, error) {
	var b bytes.Buffer
	enc := gob.NewEncoder(&b)
	if err := enc.Encode(m.n); err != nil {
		return nil, err
	}
	if err := enc.Encode(m.m2); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

func (m *moments) UnmarshalBinary(data []byte) error {
	dec := gob.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&m.n); err != nil {
		return err
	}
	return dec.Decode(&m.m2)
}

// window checkpoints through the appender pair the flat codec uses:
// AppendBinary is a save-side root like Save and MarshalBinary.
type window struct {
	vals []float64
	head int // want `field window.head is neither referenced in window's Save/Load path nor annotated`
}

func (w *window) AppendBinary(dst []byte) ([]byte, error) {
	for _, v := range w.vals {
		dst = append(dst, byte(v))
	}
	return dst, nil
}

func (w *window) UnmarshalBinary(data []byte) error {
	w.vals = w.vals[:0]
	for _, b := range data {
		w.vals = append(w.vals, float64(b))
	}
	return nil
}
