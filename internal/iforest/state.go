package iforest

import (
	"fmt"

	"streamad/internal/wire"
)

// maxWalkDepth bounds the depth of a decoded tree: a tree grown from a
// sample of n vectors is at most ⌈log₂ n⌉ deep.
const maxWalkDepth = 64

// walk walks the tree's count node records in pre-order: each node's
// size, whether it branches and, when it does, its normal and intercept.
// A branching node's left child is the next record and its right child
// the record after its left subtree. Decoding appends each record to t's
// slabs, pre-sized from the declared counts, links each right child
// through open (the branching nodes still waiting for theirs, with their
// depths), and refuses a record past either count, deeper than the
// tree's own limit, or outside one complete tree.
func (t *Tree) walk(w *wire.Walk, count int) {
	var open [maxWalkDepth]struct{ node, depth int }
	top, depth, branch := 0, -1, true // a virtual branching parent for the root
	for i := 0; i < count; i++ {
		var size int
		if w.Decoding() {
			switch {
			case branch:
				depth++
			case top > 0:
				top--
				t.nodes[open[top].node].right = int32(i)
				depth = open[top].depth + 1
			default:
				w.Fail(fmt.Errorf("iforest: tree snapshot holds more nodes than one tree"))
			}
		}
		if w.Encoding() {
			size, branch = int(t.nodes[i].size), t.nodes[i].right != 0
		}
		w.Int(&size)
		w.Bool(&branch)
		if w.Decoding() {
			switch {
			case depth > t.maxDepth || depth >= maxWalkDepth:
				w.Fail(fmt.Errorf("iforest: tree snapshot deeper than %d", t.maxDepth))
			case size != int(int32(size)):
				w.Fail(fmt.Errorf("iforest: tree node size %d out of range", size))
			case branch && cap(t.plane)-len(t.plane) < 2*t.dim:
				w.Fail(fmt.Errorf("iforest: tree snapshot has more branching nodes than declared"))
			default:
				t.nodes = append(t.nodes, node{size: int32(size)})
				if branch {
					t.nodes[i].at = int32(len(t.plane))
					t.plane = t.plane[:len(t.plane)+2*t.dim]
					open[top] = struct{ node, depth int }{i, depth}
					top++
				}
			}
		}
		if branch && w.Err() == nil {
			at := int(t.nodes[i].at)
			w.RawFloat64s(t.plane[at : at+2*t.dim])
		}
	}
	if w.Decoding() && (top > 0 || branch || len(t.plane) != cap(t.plane)) {
		w.Fail(fmt.Errorf("iforest: tree snapshot holds fewer nodes than declared"))
	}
}

// Walk implements wire.Walker: the full forest — every tree's geometry
// plus the performance counters — and the tree-growing RNG position, so
// a restored detector continues exactly where the saved one stopped and
// grows the same replacement trees. The receiver's channel count must
// match the snapshot; the other knobs are restored.
func (f *PCBForest) Walk(w *wire.Walk) {
	w.Expect("iforest: channels", f.channels)
	w.Int(&f.numTrees)
	w.Int(&f.subsample)
	w.Float64(&f.threshold)
	w.Bool(&f.fitted)
	w.Int(&f.pruned)
	w.Int(&f.grown)
	seed, draws := f.src.SeedValue(), f.src.Draws()
	w.Int64(&seed)
	w.Uint64(&draws)
	n := w.Count(len(f.trees), w.Left())
	if w.Decoding() {
		slab := make([]Tree, n)
		f.trees, f.counters = make([]*Tree, n), make([]int, n)
		for i := range slab {
			f.trees[i] = &slab[i]
		}
	}
	for i, t := range f.trees[:n] {
		w.Int(&f.counters[i])
		w.Int(&t.maxDepth)
		w.Int(&t.sample)
		nodes := w.Count(len(t.nodes), w.Left())
		branching := w.Count(len(t.plane)/(2*f.channels), nodes)
		if w.Decoding() {
			t.dim = f.channels
			t.nodes, t.plane = make([]node, 0, nodes), make([]float64, 0, 2*f.channels*branching)
		}
		t.walk(w, nodes)
	}
	if w.Decoding() {
		f.src.Restore(seed, draws)
	}
}
