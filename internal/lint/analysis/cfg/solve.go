package cfg

import "slices"

// Forward solves a forward dataflow problem with a worklist: entry
// starts with the boundary state, every other live block's In is the
// join of its live predecessors' Outs, and Out = transfer(block, In).
// It returns In for every block the solve reaches; dead blocks are
// absent.
//
// join must be commutative and associative; transfer must be monotone
// over the implied lattice and must not mutate its argument (return a
// fresh state). equal decides convergence. The worklist iterates until
// no block's Out changes, so loops (back edges) reach their fixpoint.
func Forward[S any](g *CFG, boundary S, transfer func(*Block, S) S, join func(S, S) S, equal func(a, b S) bool) map[*Block]S {
	return solve(g, g.Entry(), false, boundary, transfer, join, equal)
}

// Backward solves a backward dataflow problem: Exit starts with the
// boundary state, every other live block's Out is the join of its live
// successors' Ins, and In = transfer(block, Out) (transfer functions
// scan their block's nodes in reverse). It returns Out for every block
// the solve reaches.
func Backward[S any](g *CFG, boundary S, transfer func(*Block, S) S, join func(S, S) S, equal func(a, b S) bool) map[*Block]S {
	return solve(g, g.Exit, true, boundary, transfer, join, equal)
}

// solve is one worklist for both orientations: pre is a block's state
// on the side flow enters it (the result), post the state it passes
// on, both by Block.Index.
func solve[S any](g *CFG, start *Block, backward bool, boundary S, transfer func(*Block, S) S, join func(S, S) S, equal func(a, b S) bool) map[*Block]S {
	inputs := func(b *Block) []*Block {
		if backward {
			return b.Succs
		}
		return b.Preds
	}
	pre := make([]S, len(g.Blocks))
	post := make([]S, len(g.Blocks))
	done := make([]bool, len(g.Blocks))

	// The backward start (Exit) can be dead when a function cannot
	// return (infinite loop); fall back to seeding every live block
	// that has no live inputs, so the worklist still drains.
	var work []*Block
	seed := func(b *Block, s S) {
		pre[b.Index] = s
		post[b.Index] = transfer(b, s)
		done[b.Index] = true
		work = append(work, b)
	}
	if start.Live {
		seed(start, boundary)
	} else {
		for _, b := range g.Blocks {
			if b.Live && !slices.ContainsFunc(inputs(b), func(in *Block) bool { return in.Live }) {
				seed(b, boundary)
			}
		}
	}

	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		outputs := b.Succs
		if backward {
			outputs = b.Preds
		}
		for _, next := range outputs {
			if !next.Live {
				continue
			}
			// Join every available input state; a dead or not yet
			// computed input has none (a later pass revisits).
			var state S
			first := true
			for _, in := range inputs(next) {
				if !done[in.Index] {
					continue
				}
				if first {
					state = post[in.Index]
					first = false
				} else {
					state = join(state, post[in.Index])
				}
			}
			if next == start {
				if first {
					state = boundary
				} else {
					state = join(state, boundary)
				}
				first = false
			}
			if first {
				continue
			}
			i := next.Index
			if done[i] && equal(pre[i], state) {
				continue
			}
			pre[i] = state
			newPost := transfer(next, state)
			if done[i] && equal(post[i], newPost) {
				continue
			}
			post[i] = newPost
			done[i] = true
			work = append(work, next)
		}
	}

	sol := map[*Block]S{}
	for _, b := range g.Blocks {
		if done[b.Index] {
			sol[b] = pre[b.Index]
		}
	}
	return sol
}
