// Package iforest implements the extended isolation forest (Hariri et al.)
// and its streaming variant PCB-iForest (Heigl et al.), which rates each
// tree by a performance counter and, when concept drift is detected,
// discards the negatively contributing trees and grows replacements from
// the current training set.
package iforest

import (
	"math"
	"math/rand"
	"slices"
)

// node is one record of an extended isolation tree's pre-order slab. A
// branching node's left child is the next record and right is the index
// of its right child; right 0 marks a leaf, since the root is nobody's
// child. plane[at : at+2·dim] holds a branching node's hyperplane, the
// normal followed by the intercept: a point s goes left when
// (s − intercept)·normal ≤ 0. size counts the training points at the node.
type node struct {
	right, size, at int32
}

// Tree is a single extended isolation tree, held as two pointer-free
// slabs so scoring walks contiguous memory and the collector has nothing
// to trace.
type Tree struct {
	nodes    []node
	plane    []float64
	dim      int
	maxDepth int
	sample   int // points used to build the tree
}

const eulerGamma = 0.5772156649015329

// harmonic approximates the i-th harmonic number.
func harmonic(i float64) float64 {
	if i <= 0 {
		return 0
	}
	return math.Log(i) + eulerGamma
}

// AvgPathLength is c(n), the expected path length of an unsuccessful BST
// search among n points; it normalizes isolation depths.
func AvgPathLength(n int) float64 {
	f := float64(n)
	switch {
	case n <= 1:
		return 0
	case n == 2:
		return 1
	default:
		return 2*harmonic(f-1) - 2*(f-1)/f
	}
}

// grower grows one tree into its slabs, with one pair of bounds and one
// partition spill as scratch.
type grower struct {
	Tree
	rng    *rand.Rand
	lo, hi []float64
	spill  [][]float64
}

// grow appends the subtree over points, depth levels below the root, in
// pre-order. It partitions points in place and stably, so each subset
// keeps the order in which it was sampled.
func (g *grower) grow(points [][]float64, depth int) {
	i := len(g.nodes)
	g.nodes = append(g.nodes, node{size: int32(len(points))})
	if len(points) <= 1 || depth >= g.maxDepth {
		return
	}
	// Per-dimension bounds of the current subset.
	lo, hi := g.lo, g.hi
	copy(lo, points[0])
	copy(hi, points[0])
	for _, p := range points[1:] {
		for d, v := range p {
			if v < lo[d] {
				lo[d] = v
			}
			if v > hi[d] {
				hi[d] = v
			}
		}
	}
	split := false
	for d := range lo {
		split = split || hi[d] > lo[d]
	}
	if !split {
		// All points identical: cannot split.
		return
	}
	// Random hyperplane: slope from a standard normal, intercept uniform in
	// the bounding box (the extended isolation forest's diagonal branches).
	at := len(g.plane)
	for range lo {
		g.plane = append(g.plane, g.rng.NormFloat64())
	}
	for d := range lo {
		g.plane = append(g.plane, lo[d]+g.rng.Float64()*(hi[d]-lo[d]))
	}
	normal, intercept := g.plane[at:at+g.dim], g.plane[at+g.dim:]
	left, right := 0, 0
	for _, p := range points {
		var s float64
		for d, v := range p {
			s += (v - intercept[d]) * normal[d]
		}
		if s <= 0 {
			points[left] = p
			left++
		} else {
			g.spill[right] = p
			right++
		}
	}
	copy(points[left:], g.spill[:right])
	if left == 0 || right == 0 {
		// Unlucky hyperplane missed the set; treat as leaf rather than
		// recursing forever.
		g.plane = g.plane[:at]
		return
	}
	g.nodes[i].at = int32(at)
	g.grow(points[:left], depth+1)
	g.nodes[i].right = int32(len(g.nodes))
	g.grow(points[left:], depth+1)
}

// NewTree builds an extended isolation tree from the sample without
// reordering it. The depth limit is ⌈log2(len(sample))⌉ as in the
// original algorithm.
func NewTree(sample [][]float64, rng *rand.Rand) *Tree {
	g := grower{rng: rng, spill: make([][]float64, len(sample))}
	g.sample = len(sample)
	g.maxDepth = max(1, int(math.Ceil(math.Log2(float64(len(sample))+1))))
	if len(sample) > 0 {
		g.dim = len(sample[0])
	}
	g.lo, g.hi = make([]float64, g.dim), make([]float64, g.dim)
	g.grow(slices.Clone(sample), 0)
	t := g.Tree
	t.nodes, t.plane = slices.Clone(t.nodes), slices.Clone(t.plane)
	return &t
}

// PathLength returns the isolation depth of point s, with the standard
// c(size) adjustment at non-singleton leaves.
func (t *Tree) PathLength(s []float64) float64 {
	depth := 0.0
	for i := 0; ; depth++ {
		n := t.nodes[i]
		if n.right == 0 {
			return depth + AvgPathLength(int(n.size))
		}
		hp := t.plane[n.at : int(n.at)+2*t.dim]
		normal, intercept := hp[:t.dim], hp[t.dim:]
		var v float64
		for d, x := range s {
			v += (x - intercept[d]) * normal[d]
		}
		if v <= 0 {
			i++
		} else {
			i = int(n.right)
		}
	}
}

// Score converts an average path length over a forest built from n-point
// samples into the isolation-forest anomaly score 2^(−E(h)/c(n)) ∈ (0,1].
func Score(avgPath float64, n int) float64 {
	c := AvgPathLength(n)
	if c <= 0 {
		return 0.5
	}
	return math.Pow(2, -avgPath/c)
}
