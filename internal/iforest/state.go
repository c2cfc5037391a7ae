package iforest

import (
	"fmt"

	"streamad/internal/wire"
)

// countNodes returns the number of nodes under n and how many of them are
// internal, so the restore side can size one slab per tree.
func countNodes(n *node) (nodes, internal int) {
	if n.isLeaf() {
		return 1, 0
	}
	ln, li := countNodes(n.left)
	rn, ri := countNodes(n.right)
	return 1 + ln + rn, 1 + li + ri
}

// appendNode appends n and its subtrees in pre-order: the size, whether
// the node branches and, when it does, the hyperplane followed by the
// left and right subtrees.
func appendNode(dst []byte, n *node, dim int) ([]byte, error) {
	dst = wire.AppendInt(dst, n.size)
	dst = wire.AppendBool(dst, !n.isLeaf())
	if n.isLeaf() {
		return dst, nil
	}
	if len(n.normal) != dim || len(n.intercept) != dim {
		return nil, fmt.Errorf("iforest: node hyperplane has %d dimensions, forest has %d", len(n.normal), dim)
	}
	dst = wire.AppendRawFloat64s(dst, n.normal)
	dst = wire.AppendRawFloat64s(dst, n.intercept)
	dst, err := appendNode(dst, n.left, dim)
	if err != nil {
		return nil, err
	}
	return appendNode(dst, n.right, dim)
}

// treeDecoder rebuilds one pre-order tree into a node slab and a float
// slab, so a restored tree costs two allocations instead of three per
// branching node.
type treeDecoder struct {
	rd       *wire.Reader
	nodes    []node
	floats   []float64
	dim      int
	maxDepth int
}

// next decodes the node at the front of the input and, recursively, its
// subtrees. Depth is bounded by the tree's own limit, which also bounds
// the recursion on hostile input.
func (t *treeDecoder) next(depth int) *node {
	size, internal := t.rd.Int(), t.rd.Bool()
	if t.rd.Err() != nil {
		return nil
	}
	if len(t.nodes) == 0 || depth > t.maxDepth {
		t.rd.Fail(fmt.Errorf("iforest: tree snapshot exceeds its declared node count or depth %d", t.maxDepth))
		return nil
	}
	n := &t.nodes[0]
	t.nodes = t.nodes[1:]
	n.size = size
	if !internal {
		return n
	}
	if len(t.floats) < 2*t.dim {
		t.rd.Fail(fmt.Errorf("iforest: tree snapshot has more branching nodes than declared"))
		return nil
	}
	n.normal, n.intercept = t.floats[:t.dim:t.dim], t.floats[t.dim:2*t.dim:2*t.dim]
	t.floats = t.floats[2*t.dim:]
	t.rd.RawFloat64s(n.normal)
	t.rd.RawFloat64s(n.intercept)
	if n.left = t.next(depth + 1); n.left == nil {
		return nil
	}
	if n.right = t.next(depth + 1); n.right == nil {
		return nil
	}
	return n
}

// AppendBinary implements wire.Appender: the full forest — every tree's
// geometry plus the performance counters — and the tree-growing RNG
// position, so a restored detector continues exactly where the saved one
// stopped and grows the same replacement trees.
func (f *PCBForest) AppendBinary(dst []byte) ([]byte, error) {
	dst = wire.AppendInt(dst, f.channels)
	dst = wire.AppendInt(dst, f.numTrees)
	dst = wire.AppendInt(dst, f.subsample)
	dst = wire.AppendFloat64(dst, f.threshold)
	dst = wire.AppendBool(dst, f.fitted)
	dst = wire.AppendInt(dst, f.Pruned)
	dst = wire.AppendInt(dst, f.Grown)
	dst = wire.AppendInt64(dst, f.src.SeedValue())
	dst = wire.AppendUint64(dst, f.src.Draws())
	dst = wire.AppendInt(dst, len(f.trees))
	for i, t := range f.trees {
		nodes, internal := countNodes(t.root)
		dst = wire.AppendInt(dst, f.counters[i])
		dst = wire.AppendInt(dst, t.maxDepth)
		dst = wire.AppendInt(dst, t.sample)
		dst = wire.AppendInt(dst, nodes)
		dst = wire.AppendInt(dst, internal)
		var err error
		if dst, err = appendNode(dst, t.root, f.channels); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler; the receiver's
// channel count must match the snapshot (other knobs are restored).
func (f *PCBForest) UnmarshalBinary(data []byte) error {
	rd := wire.NewReader(data)
	if ch := rd.Int(); rd.Err() == nil && ch != f.channels {
		return fmt.Errorf("iforest: snapshot channels %d != model channels %d", ch, f.channels)
	}
	numTrees, subsample, threshold, fitted := rd.Int(), rd.Int(), rd.Float64(), rd.Bool()
	pruned, grown := rd.Int(), rd.Int()
	seed, draws := rd.Int64(), rd.Uint64()
	n := rd.Count(len(data))
	slab, trees, counters := make([]Tree, n), make([]*Tree, n), make([]int, n)
	for i := range slab {
		t := &slab[i]
		counters[i], t.maxDepth, t.sample = rd.Int(), rd.Int(), rd.Int()
		nodes := rd.Count(len(data))
		internal := rd.Count(nodes)
		dec := treeDecoder{rd: &rd, dim: f.channels, maxDepth: t.maxDepth,
			nodes: make([]node, nodes), floats: make([]float64, 2*f.channels*internal)}
		t.root = dec.next(0)
		if rd.Err() == nil && (len(dec.nodes) != 0 || len(dec.floats) != 0) {
			rd.Fail(fmt.Errorf("iforest: tree %d holds fewer nodes than declared", i))
		}
		trees[i] = t
	}
	if err := rd.Done(); err != nil {
		return err
	}
	f.numTrees, f.subsample, f.threshold, f.fitted = numTrees, subsample, threshold, fitted
	f.trees, f.counters = trees, counters
	f.Pruned, f.Grown = pruned, grown
	f.src.Restore(seed, draws)
	return nil
}
