package engine

import (
	"repro/internal/smpi"
	"repro/internal/trisolve"
)

// Job is one volume-mode replay: the world size it runs on and every rank's
// body. Session.CommVolume and CommVolumeSolve, the planner and the topology
// sweep run the same bodies, so their reports agree by construction.
type Job struct {
	World int
	Body  smpi.RankFunc
}

// VolumeJob replays e's factorization schedule at dimension n on cfg.Ranks
// ranks, with no arithmetic and identical byte counts.
func VolumeJob(e Engine, n int, cfg Config) Job {
	return Job{World: cfg.Ranks, Body: func(c *smpi.Comm) error {
		_, _, err := e.Run(c, nil, n, cfg)
		return err
	}}
}

// SolveJob replays a full factorize-plus-solve schedule at dimension n on one
// world: e's factorization on the first cfg.Ranks ranks, then the distributed
// triangular solve with rhs right-hand sides on the first solveRanks — the
// rank counts the numeric solve path uses. Every rank marks its timeline
// shard between the two (smpi.Comm.Mark), so when solveRanks ≤ cfg.Ranks —
// one world for both jobs — the marked report of a timeline that keeps marks
// is VolumeJob's report, field for field.
func SolveJob(e Engine, n int, cfg Config, solveRanks, rhs int) Job {
	sopt := trisolve.DefaultOptions(n, solveRanks, rhs)
	// Each phase runs on its own prefix sub-communicator, so the grids see
	// exactly the rank counts the numeric path gives them (grid ranks ==
	// world ranks, which the engines' sub-grid construction relies on).
	prefix := func(p int) []int {
		out := make([]int, p)
		for i := range out {
			out[i] = i
		}
		return out
	}
	factorComm, solveComm := prefix(cfg.Ranks), prefix(solveRanks)
	return Job{World: max(cfg.Ranks, solveRanks), Body: func(c *smpi.Comm) error {
		if c.Rank() < cfg.Ranks {
			if _, _, err := e.Run(c.Sub("factor", factorComm), nil, n, cfg); err != nil {
				return err
			}
		}
		c.Mark()
		if c.Rank() < solveRanks {
			if _, err := trisolve.Run(c.Sub("solve", solveComm), nil, nil, sopt); err != nil {
				return err
			}
		}
		return nil
	}}
}
