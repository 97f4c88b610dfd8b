package conflux

// planSwaps converts this step's tournament pivots into a sequence of row
// interchanges that bring pivot i to slot t·v+i, LAPACK style. Every rank
// computes the identical plan from the broadcast pivot IDs.
func planSwaps(pivIDs []int, t, v int) [][2]int {
	// moved lists the slots that no longer hold the row the step began with
	// there, and that row's name — at most two per swap, so a scan of it
	// costs less than the hashing of a map.
	type entry struct{ slot, row int }
	moved := make([]entry, 0, 2*len(pivIDs))
	swaps := make([][2]int, 0, len(pivIDs))
	for i, p := range pivIDs {
		q := t*v + i
		cur, rq := p, q // p's current slot, the row now in slot q
		iq, ic := -1, -1
		for k, m := range moved {
			if m.row == p {
				cur, ic = m.slot, k
			}
			if m.slot == q {
				rq, iq = m.row, k
			}
		}
		if cur == q {
			continue
		}
		swaps = append(swaps, [2]int{q, cur})
		if iq < 0 {
			iq, moved = len(moved), append(moved, entry{slot: q})
		}
		if ic < 0 {
			ic, moved = len(moved), append(moved, entry{slot: cur})
		}
		moved[iq].row, moved[ic].row = p, rq
	}
	return swaps
}

// applySwaps is the swapping policy's step: it performs the physical row
// interchanges across every tile column and EVERY replication layer — the
// 2.5D row-swapping cost the paper's row masking avoids — one message per
// swap per grid column per layer, and from then on names the pivots by the
// slots t·v+i they now occupy.
func (e *engine) applySwaps(t int) {
	e.ac.SetPhase(e.phase.swap)
	swaps := planSwaps(e.pivIDs, t, e.opt.V)
	for _, sw := range swaps {
		e.perm[sw[0]], e.perm[sw[1]] = e.perm[sw[1]], e.perm[sw[0]]
	}
	// A swapped row travels whole: every tile column this rank owns.
	if total := e.store.TrailingCols(0); total > 0 {
		for si, sw := range swaps {
			a, b := sw[0], sw[1]
			o1 := e.bc.OwnerRow(a / e.opt.V)
			o2 := e.bc.OwnerRow(b / e.opt.V)
			tag := 7000 + si
			switch {
			case o1 == e.row && o2 == e.row:
				e.store.UnstackTrailingRows(0, []int{b, a}, e.stackRows(0, total, []int{a, b}))
			case o1 == e.row:
				e.exchangeRow(a, o2, tag, total)
			case o2 == e.row:
				e.exchangeRow(b, o1, tag, total)
			}
		}
	}
	// BcastInts' list is shared with the other receivers: rewrite a copy.
	e.slots = e.slots[:0]
	for i := range e.pivIDs {
		e.slots = append(e.slots, t*e.opt.V+i)
	}
	e.pivIDs = e.slots
}

// exchangeRow sends local row r to grid row peer of my column communicator
// and replaces it with the row received back.
func (e *engine) exchangeRow(r, peer, tag, total int) {
	rows := []int{r}
	e.colc.SendMat(peer, tag, e.stackRows(0, total, rows))
	buf := e.buffer(1, total)
	e.colc.RecvMat(peer, tag, buf)
	e.store.UnstackTrailingRows(0, rows, buf)
}
