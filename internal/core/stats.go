package core

import (
	"math"
	"strconv"
)

// Statser is the optional stats facet of a tree node: what it can report
// about itself beyond the Node counters. Ensembles report their member
// rows and cascades their per-tier counters; a leaf has nothing to add and
// lacks it. Callers serialize Stats with Step.
type Statser interface {
	Stats() NodeStats
}

// NodeStats is one node's report and, merged by TreeStats, a whole
// tree's. The types carry the JSON shape of GET /v1/streams/{id}.
type NodeStats struct {
	// Members is one row per ensemble member.
	Members []MemberStat
	// Cascade is set by cascade nodes.
	Cascade *CascadeStats
}

// MemberStat is one ensemble member's observable state.
type MemberStat struct {
	// Node is the ensemble's child path from the root of the tree ("" for
	// a root ensemble, "1" for one that is a cascade's first heavy member);
	// TreeStats fills it in.
	Node string `json:"node,omitempty"`
	// Index is the member's position in its ensemble (stable, 0-based).
	Index int `json:"index"`
	// Label names the member, typically its pipeline spec string.
	Label string `json:"spec"`
	// Ready counts the steps this member has scored.
	Ready int `json:"ready_steps"`
	// FineTunes counts the member's drift-triggered fine-tuning sessions.
	FineTunes int `json:"fine_tunes"`
	// Agreement is the rolling consensus-agreement counter pc_i.
	Agreement int `json:"agreement"`
	// Weight is the member's current normalized aggregation weight
	// (0 when disabled; the weights of enabled members sum to 1).
	Weight float64 `json:"weight"`
	// Disabled reports whether the pruning policy currently excludes the
	// member from aggregation.
	Disabled bool `json:"disabled,omitempty"`
	// LastScore is the member's most recent anomaly score.
	LastScore float64 `json:"last_score"`
}

// Path is the member's own child path from the root: the /metrics member
// label, which for a root ensemble is just the index.
func (m *MemberStat) Path() string { return childPath(m.Node, m.Index) }

// CascadeStats is a cascade's observable state: the per-tier traffic
// split and the conformal admission gate.
type CascadeStats struct {
	// Node is the cascade's child path from the root ("" at the root, the
	// only place the spec grammar puts one); TreeStats fills it in.
	Node string `json:"node,omitempty"`
	// GateLabel names the tier-0 gate, HeavyLabels the heavy members.
	GateLabel   string   `json:"gate"`
	HeavyLabels []string `json:"heavy"`
	// Steps is the total vectors consumed; Screened (answered by the gate
	// alone), Admitted (sent to the heavy tier by the conformal gate) and
	// Forwarded (sent unconditionally during ramp-up: gate warmup,
	// calibration fill, heavy warmup) partition it.
	Steps     int `json:"-"`
	Screened  int `json:"screened"`
	Admitted  int `json:"admitted"`
	Forwarded int `json:"forwarded"`
	// AdmitTarget is the configured false-admission rate ε; AdmissionRate
	// is Admitted/(Admitted+Screened), the observed fraction among gate
	// decisions (0 before any decision).
	AdmitTarget   float64 `json:"admit_target"`
	AdmissionRate float64 `json:"admission_rate"`
	// HeavyRate is (Admitted+Forwarded)/Steps — the fraction of all
	// traffic that reached the heavy tier, the cascade's cost profile.
	HeavyRate float64 `json:"heavy_rate"`
	// CalibN and CalibCap are the calibration window's fill and capacity.
	CalibN   int `json:"calibration_n"`
	CalibCap int `json:"calibration_cap"`
	// Screening reports whether the gate is currently deciding (as
	// opposed to ramp-up forwarding).
	Screening bool `json:"screening"`
	// LastPValue is the most recent gate-score p-value.
	LastPValue float64 `json:"-"`
}

// TreeStats walks the tree under root — any shape, depth first in child
// order — and merges what its nodes report: every ensemble's member rows,
// and the outermost cascade's counters, each stamped with its node's child
// path. A node without the facet reports nothing but its children are
// still visited; a foreign Stepper with neither facet nor children yields
// the zero NodeStats. Non-finite floats are zeroed so the result always
// encodes as JSON. The caller holds whatever serializes root's Step.
func TreeStats(root any) NodeStats {
	var out NodeStats
	var walk func(n any, path string)
	walk = func(n any, path string) {
		if s, ok := n.(Statser); ok {
			st := s.Stats()
			for _, m := range st.Members {
				m.Node, m.Weight, m.LastScore = path, FiniteOrZero(m.Weight), FiniteOrZero(m.LastScore)
				out.Members = append(out.Members, m)
			}
			if st.Cascade != nil && out.Cascade == nil {
				c := *st.Cascade
				c.Node, c.AdmissionRate, c.HeavyRate = path, FiniteOrZero(c.AdmissionRate), FiniteOrZero(c.HeavyRate)
				out.Cascade = &c
			}
		}
		if p, ok := n.(interface{ Children() []Node }); ok {
			for i, c := range p.Children() {
				walk(c, childPath(path, i))
			}
		}
	}
	walk(root, "")
	return out
}

// childPath extends a dotted child path by one index.
func childPath(parent string, i int) string {
	if parent == "" {
		return strconv.Itoa(i)
	}
	return parent + "." + strconv.Itoa(i)
}

// FiniteOrZero zeroes a non-finite value on its way into JSON:
// encoding/json cannot represent NaN/±Inf and would abort the whole
// response. Paired with omitempty, such a value simply drops its field.
func FiniteOrZero(f float64) float64 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return f
}
