package smpi

import (
	"fmt"
	"slices"

	"repro/internal/mat"
)

// BcastMat broadcasts root's matrix to every rank (binomial tree, log₂(p)
// rounds; total volume (p-1)·len, matching an MPI tree broadcast).
func (c *Comm) BcastMat(root int, m *mat.Matrix) {
	tag := c.nextCollTag()
	p := c.Size()
	if p == 1 {
		return
	}
	r := (c.me - root + p) % p // rank relative to root
	for mask := 1; mask < p; mask <<= 1 {
		if r < mask {
			if peer := r + mask; peer < p {
				c.SendMat((peer+root)%p, tag, m)
			}
		} else if r < mask<<1 {
			c.RecvMat((r-mask+root)%p, tag, m)
		}
	}
}

// BcastInts broadcasts root's int slice (binomial tree). Root gets its own
// argument back; every receiver gets the one copy the root made, forwarded
// hop to hop and shared by all of them. So the result is read-only at the
// receivers: index it, range over it, copy it, but never write, sort or
// append to it in place (its capacity is clipped, so an append reallocates).
// The callers — the 2.5D engines' pivot IDs and lu2d's panel pivots — only
// read it.
func (c *Comm) BcastInts(root int, ids []int) []int {
	tag := c.nextCollTag()
	p := c.Size()
	if p == 1 {
		return ids
	}
	r := (c.me - root + p) % p
	shared := ids
	if r == 0 {
		shared = slices.Clip(append([]int(nil), ids...))
	}
	for mask := 1; mask < p; mask <<= 1 {
		if r < mask {
			if peer := r + mask; peer < p {
				c.Send((peer+root)%p, tag, Msg{I: shared, N: len(shared)})
			}
		} else if r < mask<<1 {
			shared = c.Recv((r-mask+root)%p, tag).I
			ids = shared
		}
	}
	return ids
}

// ReduceMatSum element-wise sums every rank's matrix into root's matrix
// (binomial tree; total volume (p-1)·len). Each rank accumulates its
// children's partial sums into m itself, in tree order, straight from the
// wire buffers, so non-root contents are consumed: a non-root m is left
// holding its subtree's partial sum.
func (c *Comm) ReduceMatSum(root int, m *mat.Matrix) {
	tag := c.nextCollTag()
	p := c.Size()
	if p == 1 {
		return
	}
	r := (c.me - root + p) % p
	for mask := 1; mask < p; mask <<= 1 {
		if r&mask != 0 {
			c.SendMat(((r-mask)+root)%p, tag, m)
			return
		}
		if r+mask < p {
			msg := c.Recv(((r+mask)+root)%p, tag)
			if msg.N != m.Len() {
				panic(fmt.Sprintf("smpi: ReduceMatSum expected %d elements, got %d", m.Len(), msg.N))
			}
			if msg.F != nil {
				m.AddFrom(&mat.Matrix{Rows: m.Rows, Cols: m.Cols, Stride: m.Cols, Data: msg.F})
				putFloats(msg.F)
			}
		}
	}
}

// AllreduceMatSum combines ReduceMatSum and BcastMat (volume 2(p-1)·len).
func (c *Comm) AllreduceMatSum(m *mat.Matrix) {
	c.ReduceMatSum(0, m)
	c.BcastMat(0, m)
}

// MaxLoc is a (value, location) pair for distributed pivot search.
type MaxLoc struct {
	Val float64
	Loc int
}

// Butterfly runs a hypercube all-exchange: every rank ends with
// combine(..) folded over all ranks' inputs. combine must be associative
// and commutative. Non-power-of-two sizes fold the tail ranks into the
// leading power-of-two block and fan the result back out.
func (c *Comm) Butterfly(in Msg, combine func(mine, theirs Msg) Msg) Msg {
	tag := c.nextCollTag()
	p := c.Size()
	pow2 := 1
	for pow2<<1 <= p {
		pow2 <<= 1
	}
	rem := p - pow2
	cur := in
	// Fold-in: tail ranks send to their mirror in the pow2 block.
	if c.me >= pow2 {
		c.Send(c.me-pow2, tag, cur)
	} else if c.me < rem {
		cur = combine(cur, c.Recv(c.me+pow2, tag))
	}
	if c.me < pow2 {
		for mask := 1; mask < pow2; mask <<= 1 {
			peer := c.me ^ mask
			c.Send(peer, tag, cur)
			cur = combine(cur, c.Recv(peer, tag))
		}
	}
	// Fan-out to the folded tail.
	if c.me < rem {
		c.Send(c.me+pow2, tag, cur)
	} else if c.me >= pow2 {
		cur = c.Recv(c.me-pow2, tag)
	}
	return cur
}

// Barrier synchronizes the communicator with zero metered volume (control
// traffic is not data volume in the paper's accounting). It is not free in
// simulated time: each butterfly round costs α per endpoint, so barriers
// contribute latency to the makespan like real fence synchronization.
func (c *Comm) Barrier() {
	c.Butterfly(Msg{N: 0}, func(a, b Msg) Msg { return Msg{N: 0} })
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
