// Package halo implements friends-of-friends (FOF) halo identification and
// the halo catalog types shared by the analysis pipeline.
//
// "An FOF halo consists of all particles that are within the 'linking
// length' of at least one other particle in the halo ... Finding FOF halos
// is equivalent to finding the connected components of a graph in which
// each particle is a vertex, and there exists an edge between two vertices
// if and only if the distance between them is less than the specified
// linking length" (§3.3.1). The finder here materializes those components
// with a union-find structure fed by one self-join of a k-d tree, and a
// naive O(n²) variant is retained as the ablation baseline.
package halo

// DisjointSet is a union-find structure with path compression and union by
// size.
type DisjointSet struct {
	parent []int
	size   []int
}

// NewDisjointSet creates n singleton sets.
func NewDisjointSet(n int) *DisjointSet {
	d := &DisjointSet{parent: make([]int, n), size: make([]int, n)}
	for i := range d.parent {
		d.parent[i] = i
		d.size[i] = 1
	}
	return d
}

// Find returns the representative of i's set.
func (d *DisjointSet) Find(i int) int {
	root := i
	for d.parent[root] != root {
		root = d.parent[root]
	}
	for d.parent[i] != root {
		d.parent[i], i = root, d.parent[i]
	}
	return root
}

// Union merges the sets containing a and b, returning the new root.
func (d *DisjointSet) Union(a, b int) int {
	ra, rb := d.Find(a), d.Find(b)
	if ra == rb {
		return ra
	}
	if d.size[ra] < d.size[rb] {
		ra, rb = rb, ra
	}
	d.parent[rb] = ra
	d.size[ra] += d.size[rb]
	return ra
}

// Groups returns the members of every set with at least minSize elements,
// each group sorted ascending, groups ordered by their smallest member.
func (d *DisjointSet) Groups(minSize int) [][]int {
	// index[root] is one more than the root's group number; groups are
	// numbered as their first (smallest) member comes up.
	index := make([]int, len(d.parent))
	var roots []int
	kept := 0
	for i := range d.parent {
		if r := d.Find(i); index[r] == 0 && d.size[r] >= minSize {
			roots = append(roots, r)
			index[r] = len(roots)
			kept += d.size[r]
		}
	}
	// One backing array, carved per group at its exact size.
	backing := make([]int, kept)
	out := make([][]int, len(roots))
	for k, r := range roots {
		out[k], backing = backing[:0:d.size[r]], backing[d.size[r]:]
	}
	for i, r := range d.parent { // the pass above compressed every path
		if k := index[r]; k > 0 {
			out[k-1] = append(out[k-1], i)
		}
	}
	return out
}
