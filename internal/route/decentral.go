package route

import (
	"lightpath/internal/rng"
	"lightpath/internal/unit"
)

// BatchOutcome summarizes establishing a set of circuit requests.
type BatchOutcome struct {
	Circuits []*Circuit
	Failed   []Request
	// Attempts counts commit attempts, including conflicts; the
	// centralized allocator's global view needs ~1 per request, the
	// decentralized one pays extra attempts for optimistic conflicts.
	Attempts int
	// Rounds is the number of proposal rounds (1 for centralized).
	Rounds int
}

// EstablishBatch establishes the requests sequentially with the
// allocator's global view — the centralized controller of §5.
func (a *Allocator) EstablishBatch(reqs []Request, now unit.Seconds) BatchOutcome {
	out := BatchOutcome{Rounds: 1}
	for _, req := range reqs {
		out.Attempts++
		c, err := a.Establish(req, now)
		if err != nil {
			out.Failed = append(out.Failed, req)
			continue
		}
		out.Circuits = append(out.Circuits, c)
	}
	return out
}

// Decentralized simulates per-tile circuit establishment without a
// central controller (§5 "Decentralized algorithms"): in each round,
// every pending request independently proposes its next candidate
// path — computed from the round-start view of the fabric — and the
// proposals commit in arbitrary (randomized) order. Proposals that
// lose a resource race fail, advance to their next candidate, and
// retry next round. The extra Attempts relative to the centralized
// allocator measure the cost of decentralization.
type Decentralized struct {
	// Alloc owns the hardware state; Decentralized only schedules
	// commit attempts against it.
	Alloc *Allocator
	// MaxRounds bounds retries; requests still pending after that
	// many rounds are reported failed.
	MaxRounds int

	rand *rng.Rand
}

// NewDecentralized wraps an allocator. A nil stream fixes the round
// ordering to request order (deterministic worst-case contention).
func NewDecentralized(a *Allocator, r *rng.Rand) *Decentralized {
	return &Decentralized{Alloc: a, MaxRounds: 16, rand: r}
}

// EstablishBatch runs the optimistic rounds.
func (d *Decentralized) EstablishBatch(reqs []Request, now unit.Seconds) BatchOutcome {
	type pending struct {
		req       Request
		candidate int
	}
	var queue []pending
	for _, r := range reqs {
		queue = append(queue, pending{req: r})
	}

	var out BatchOutcome
	for round := 0; round < d.MaxRounds && len(queue) > 0; round++ {
		out.Rounds++
		// Each pending request proposes its current candidate based on
		// the round-start view.
		type proposal struct {
			pending
			plan plan
			ok   bool
		}
		proposals := make([]proposal, len(queue))
		for i, p := range queue {
			plans := d.Alloc.candidatePlans(p.req.A, p.req.B)
			if p.candidate < len(plans) {
				proposals[i] = proposal{pending: p, plan: plans[p.candidate], ok: true}
			} else {
				proposals[i] = proposal{pending: p}
			}
		}
		// Commit in randomized order: no coordination between tiles.
		order := make([]int, len(proposals))
		for i := range order {
			order[i] = i
		}
		if d.rand != nil {
			d.rand.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		var next []pending
		for _, i := range order {
			pr := proposals[i]
			if !pr.ok {
				out.Failed = append(out.Failed, pr.req)
				continue
			}
			out.Attempts++
			c, err := d.Alloc.commit(pr.req, pr.plan, now)
			if err != nil {
				next = append(next, pending{req: pr.req, candidate: pr.candidate + 1})
				continue
			}
			out.Circuits = append(out.Circuits, c)
		}
		queue = next
	}
	for _, p := range queue {
		out.Failed = append(out.Failed, p.req)
	}
	return out
}

// FailFiberRow marks every fiber of one trunk row as failed — a cut
// bundle. In-flight circuits using the row are torn down and
// returned so the caller can re-establish them over surviving rows
// (§5, "dynamically reconfiguring the network in real-time, ensuring
// continued operation despite faults").
func (a *Allocator) FailFiberRow(trunk, row int) []*Circuit {
	a.beginOp()
	defer a.endOp("fail-fiber-row")
	a.journal.Wide = true
	a.bumpPlanEpoch()
	// A row the rack does not have carries no circuit and no plan, so
	// there is nothing to mark.
	if i := a.rowIndex(trunk, row); i >= 0 {
		a.failedRows[i] = true
	}

	var affected []*Circuit
	for _, c := range a.circuits {
		for _, f := range c.Fibers {
			if f.Trunk == trunk && f.Row == row {
				affected = append(affected, c)
				break
			}
		}
	}
	for _, c := range affected {
		a.Release(c)
	}
	return affected
}

// RestoreFiberRow returns a previously cut trunk row to service:
// subsequent establishes may allocate its fibers again. Restoring a
// row that is not failed is a no-op. Torn-down circuits are not
// re-established here — that is the recovery loop's decision.
func (a *Allocator) RestoreFiberRow(trunk, row int) {
	a.beginOp()
	defer a.endOp("restore-fiber-row")
	a.journal.Wide = true
	a.bumpPlanEpoch()
	if i := a.rowIndex(trunk, row); i >= 0 {
		a.failedRows[i] = false
	}
}

// RowFailed reports whether a trunk row has been marked failed. A row
// the rack does not have is never failed.
func (a *Allocator) RowFailed(trunk, row int) bool {
	i := a.rowIndex(trunk, row)
	return i >= 0 && a.failedRows[i]
}

// rowUsable reports whether row survives on every trunk of the path.
func (a *Allocator) rowUsable(row int, trunks []int) bool {
	rows := a.rack.Config().Rows
	for _, tr := range trunks {
		if a.failedRows[tr*rows+row] {
			return false
		}
	}
	return true
}

// SpareFullRows counts trunk rows (over the given trunk) with no
// fiber in use and no failure — fully spare capacity available for
// repair. The fiber-packing ablation compares this between packing
// policies.
func (a *Allocator) SpareFullRows(trunk int) int {
	n := 0
	for row := 0; row < a.rack.Config().Rows; row++ {
		if i := a.rowIndex(trunk, row); i >= 0 && a.fibersUsed[i] == 0 && !a.failedRows[i] {
			n++
		}
	}
	return n
}
