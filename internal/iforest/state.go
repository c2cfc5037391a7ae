package iforest

import (
	"fmt"

	"streamad/internal/wire"
)

// decode appends the node at the front of the input and, recursively,
// its subtrees to t's slabs, which are pre-sized from the declared
// counts, and reports whether rd is still healthy. Depth is bounded by
// the tree's own limit, which also bounds the recursion on hostile input.
func (t *Tree) decode(rd *wire.Reader, depth int) bool {
	size, branch := rd.Int(), rd.Bool()
	if rd.Err() != nil {
		return false
	}
	if len(t.nodes) == cap(t.nodes) || depth > t.maxDepth {
		rd.Fail(fmt.Errorf("iforest: tree snapshot exceeds its declared node count or depth %d", t.maxDepth))
		return false
	}
	if size != int(int32(size)) {
		rd.Fail(fmt.Errorf("iforest: tree node size %d out of range", size))
		return false
	}
	i, at := len(t.nodes), len(t.plane)
	t.nodes = append(t.nodes, node{size: int32(size)})
	if !branch {
		return true
	}
	if cap(t.plane)-at < 2*t.dim {
		rd.Fail(fmt.Errorf("iforest: tree snapshot has more branching nodes than declared"))
		return false
	}
	t.plane = t.plane[:at+2*t.dim]
	rd.RawFloat64s(t.plane[at:])
	t.nodes[i].at = int32(at)
	if !t.decode(rd, depth+1) {
		return false
	}
	t.nodes[i].right = int32(len(t.nodes))
	return t.decode(rd, depth+1)
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
	dst = wire.AppendInt(dst, f.pruned)
	dst = wire.AppendInt(dst, f.grown)
	dst = wire.AppendInt64(dst, f.src.SeedValue())
	dst = wire.AppendUint64(dst, f.src.Draws())
	dst = wire.AppendInt(dst, len(f.trees))
	for i, t := range f.trees {
		dst = wire.AppendInt(dst, f.counters[i])
		dst = wire.AppendInt(dst, t.maxDepth)
		dst = wire.AppendInt(dst, t.sample)
		dst = wire.AppendInt(dst, len(t.nodes))
		dst = wire.AppendInt(dst, len(t.plane)/(2*t.dim))
		// The slab is already in pre-order: each node's size, whether it
		// branches and, when it does, its normal and intercept.
		for _, n := range t.nodes {
			dst = wire.AppendInt(dst, int(n.size))
			dst = wire.AppendBool(dst, n.right != 0)
			if n.right != 0 {
				dst = wire.AppendRawFloat64s(dst, t.plane[n.at:int(n.at)+2*t.dim])
			}
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
		t.dim = f.channels
		t.nodes, t.plane = make([]node, 0, nodes), make([]float64, 0, 2*f.channels*internal)
		if t.decode(&rd, 0) && (len(t.nodes) != cap(t.nodes) || len(t.plane) != cap(t.plane)) {
			rd.Fail(fmt.Errorf("iforest: tree %d holds fewer nodes than declared", i))
		}
		trees[i] = t
	}
	if err := rd.Done(); err != nil {
		return err
	}
	f.numTrees, f.subsample, f.threshold, f.fitted = numTrees, subsample, threshold, fitted
	f.trees, f.counters = trees, counters
	f.pruned, f.grown = pruned, grown
	f.src.Restore(seed, draws)
	return nil
}
