package cascade

import (
	"bytes"
	"errors"
	"testing"

	"streamad/internal/core"
	"streamad/internal/wire"
)

// fakeNode is a scripted core.Node: silent for warm steps, then it scores
// s[0] (nonconformity 100·s[0], so the two are distinguishable). It keeps
// the values it saw as its "window", checkpoints them, and pages them out
// the way a pipeline pages its window — or refuses to, when told.
type fakeNode struct {
	warm   int
	refuse bool // PageOut fails

	steps int
	seen  []float64
	paged bool
}

func (f *fakeNode) Step(s []float64) (core.Result, bool) {
	if f.paged {
		panic("fakeNode: Step while paged out")
	}
	f.steps++
	f.seen = append(f.seen, s[0])
	if f.steps <= f.warm {
		return core.Result{}, false
	}
	return core.Result{Score: s[0], Nonconformity: 100 * s[0]}, true
}

func (f *fakeNode) Steps() int            { return f.steps }
func (f *fakeNode) FineTunes() int        { return 0 }
func (f *fakeNode) Children() []core.Node { return nil }
func (f *fakeNode) Walk(w *wire.Walk) {
	w.Int(&f.steps)
	f.walkSeen(w)
}

func (f *fakeNode) Save() ([]byte, error)                   { return wire.Append(nil, f) }
func (f *fakeNode) AppendBinary(dst []byte) ([]byte, error) { return wire.Append(dst, f) }
func (f *fakeNode) Load(data []byte) error                  { return wire.Decode(data, f) }

// walkSeen walks the vectors seen so far, the fake's page.
func (f *fakeNode) walkSeen(w *wire.Walk) {
	n := w.Count(len(f.seen), w.Left()/8)
	if w.Decoding() {
		f.seen = make([]float64, n)
	}
	w.RawFloat64s(f.seen)
}

type pageWalk func(*wire.Walk)

func (p pageWalk) Walk(w *wire.Walk) { p(w) }

func (f *fakeNode) PageOut() ([]byte, error) {
	if f.refuse {
		return nil, errors.New("fakeNode: refusing to page")
	}
	blob, err := wire.Append(nil, pageWalk(f.walkSeen))
	f.seen, f.paged = nil, true
	return blob, err
}

func (f *fakeNode) PageIn(data []byte) error {
	if err := wire.Decode(data, pageWalk(f.walkSeen)); err != nil {
		return err
	}
	f.paged = false
	return nil
}

func (f *fakeNode) Paged() bool { return f.paged }

// gateNode is a fakeNode without the paging facet, like a tier-0 gate.
type gateNode struct{ core.Node }

func build(t *testing.T, gate *fakeNode, minCalib int, heavy ...*fakeNode) *Cascade {
	t.Helper()
	nodes := make([]core.Node, len(heavy))
	for i, h := range heavy {
		nodes[i] = h
	}
	c, err := New(Config{Gate: gateNode{gate}, GateLabel: "g", Heavy: nodes, Admit: 0.25, Calib: 16, MinCalib: minCalib})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// checkLedger holds the cascade's bookkeeping identity after every step.
func checkLedger(t *testing.T, c *Cascade) core.CascadeStats {
	t.Helper()
	st := *c.Stats().Cascade
	if st.Screened+st.Admitted+st.Forwarded != st.Steps || st.Steps != c.Steps() {
		t.Fatalf("screened %d + admitted %d + forwarded %d != steps %d", st.Screened, st.Admitted, st.Forwarded, st.Steps)
	}
	return st
}

// TestRampUpForwardsUntilReady: every vector reaches the heavy tier until
// the gate scores, the calibration window holds MinCalib gate scores and
// every heavy member has scored once — whichever comes last.
func TestRampUpForwardsUntilReady(t *testing.T) {
	for _, tc := range []struct {
		name            string
		gateWarm, calib int
		heavyWarm       [2]int
		forwarded       int // = max(gateWarm+calib−1, max(heavyWarm)+1)
	}{
		{"heavy warmup last", 3, 8, [2]int{5, 12}, 13},
		{"calibration last", 3, 16, [2]int{2, 4}, 18},
		{"gate warmup last", 10, 1, [2]int{2, 4}, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h0, h1 := &fakeNode{warm: tc.heavyWarm[0]}, &fakeNode{warm: tc.heavyWarm[1]}
			c := build(t, &fakeNode{warm: tc.gateWarm}, tc.calib, h0, h1)
			for step := 1; step <= tc.forwarded+10; step++ {
				c.Step([]float64{0.1}) // a constant score is never in the top tail: p = 1
				st := checkLedger(t, c)
				want := min(step, tc.forwarded)
				if st.Forwarded != want {
					t.Fatalf("step %d: forwarded %d, want %d", step, st.Forwarded, want)
				}
				if h0.steps != want || h1.steps != want || st.Admitted != 0 {
					t.Fatalf("step %d: heavy members saw %d and %d vectors, want %d (admitted %d)", step, h0.steps, h1.steps, want, st.Admitted)
				}
			}
		})
	}
}

// TestScreenedVectorsStopAtTheGate: once screening, a vector the gate
// finds ordinary is answered by the gate alone — under the gate's source
// label, with the gate's bounded score as its nonconformity — and no
// heavy member sees it; one in the gate's top tail reaches them all.
func TestScreenedVectorsStopAtTheGate(t *testing.T) {
	h0, h1 := &fakeNode{}, &fakeNode{warm: 2}
	c := build(t, &fakeNode{}, 8, h0, h1)
	for !c.Stats().Cascade.Screening {
		c.Step([]float64{0.1})
	}
	st0, before := *c.Stats().Cascade, h0.steps
	res, ok := c.Step([]float64{0.1})
	if !ok || res.Source != "tier0:g" || res.Score != 0.1 || res.Nonconformity != 0.1 {
		t.Fatalf("screened result %+v (ok %v), want the gate's score 0.1 as score and nonconformity from tier0:g", res, ok)
	}
	if h0.steps != before || h1.steps != before {
		t.Fatalf("a screened vector reached the heavy tier: %d and %d steps, want %d", h0.steps, h1.steps, before)
	}
	res, ok = c.Step([]float64{0.9})
	if !ok || res.Source != "heavy" || res.Score != 0.9 || res.Nonconformity != 90 {
		t.Fatalf("admitted result %+v (ok %v), want the heavy members' mean from source heavy", res, ok)
	}
	if h0.steps != before+1 || h1.steps != before+1 {
		t.Fatalf("an admitted vector skipped a heavy member: %d and %d steps, want %d", h0.steps, h1.steps, before+1)
	}
	if st := checkLedger(t, c); st.Screened != st0.Screened+1 || st.Admitted != st0.Admitted+1 {
		t.Fatalf("screened %d → %d, admitted %d → %d, want one more of each", st0.Screened, st.Screened, st0.Admitted, st.Admitted)
	}
}

// TestPageOutAllOrNothing: the heavy members page through the shared
// composite walk while the gate stays resident; when the second member
// refuses, the first is rolled back in and the cascade stays resident
// and byte-identical.
func TestPageOutAllOrNothing(t *testing.T) {
	gate, h0, h1 := &fakeNode{}, &fakeNode{}, &fakeNode{refuse: true}
	c := build(t, gate, 8, h0, h1)
	for i := 0; i < 20; i++ {
		c.Step([]float64{float64(i%5) / 10})
	}
	resident, err := c.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.PageOut(); err == nil {
		t.Fatal("PageOut succeeded though the second heavy member refused")
	}
	if c.Paged() || h0.paged || h1.paged || gate.paged {
		t.Fatalf("after a refused PageOut: cascade paged %v, members %v/%v, gate %v; want all resident", c.Paged(), h0.paged, h1.paged, gate.paged)
	}
	if after, err := c.AppendBinary(nil); err != nil || !bytes.Equal(after, resident) {
		t.Fatalf("a refused PageOut changed the checkpoint (err %v)", err)
	}

	h1.refuse = false
	page, err := c.PageOut()
	if err != nil {
		t.Fatal(err)
	}
	if !c.Paged() || !h0.paged || !h1.paged || gate.paged {
		t.Fatalf("after PageOut: cascade paged %v, members %v/%v, gate %v; want heavy members paged and the gate resident", c.Paged(), h0.paged, h1.paged, gate.paged)
	}
	if err := c.PageIn(page[:len(page)-1]); err == nil {
		t.Fatal("PageIn accepted a truncated page")
	}
	if err := c.PageIn(page); err != nil {
		t.Fatal(err)
	}
	if after, err := c.AppendBinary(nil); c.Paged() || err != nil || !bytes.Equal(after, resident) {
		t.Fatalf("page-out → page-in changed the checkpoint (paged %v, err %v)", c.Paged(), err)
	}
	c.Step([]float64{0.2})
	checkLedger(t, c)
}
