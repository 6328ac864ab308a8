// Package sched implements scheduling-plan construction: the model-guided
// optimal search of Section V-C plus the placement policies of the paper's
// competing mechanisms (round-robin, random-within-class, and an emulation
// of the Linux EAS scheduler).
package sched

import (
	"math"

	"repro/internal/amp"
	"repro/internal/costmodel"
)

// Result is a produced plan with its model estimate.
type Result struct {
	Plan     costmodel.Plan
	Estimate costmodel.Estimate
	// Feasible reports whether the plan satisfies Eqs. 2–3.
	Feasible bool
	// PlansExamined counts search-tree leaves inspected (ablation metric).
	PlansExamined int
}

// Search enumerates scheduling plans and returns the energy-minimal feasible
// one (p_opt). It is the paper's dynamic-programming enumeration: tasks are
// assigned in topological order, partial plans sharing a (task index,
// per-core busy) state are explored once thanks to symmetry breaking among
// equivalent cores, and partial costs prune dominated subtrees. If no plan
// meets the latency constraint, the minimal-latency plan is returned with
// Feasible=false (best effort).
func Search(mod *costmodel.Model, g *costmodel.Graph, lset float64) Result {
	return searchCores(mod, g, lset, true)
}

// SearchNoPrune disables branch-and-bound pruning (ablation benchmark for
// the search strategy); results are identical, only cost differs.
func SearchNoPrune(mod *costmodel.Model, g *costmodel.Graph, lset float64) Result {
	return searchCores(mod, g, lset, false)
}

func allCores(m *amp.Machine) []int {
	out := make([]int, m.NumCores())
	for i := range out {
		out[i] = i
	}
	return out
}

type searchState struct {
	mod      *costmodel.Model
	g        *costmodel.Graph
	lset     float64
	cores    []int
	prune    bool
	cur      costmodel.Plan
	busy     []float64
	bestE    float64
	bestPlan costmodel.Plan
	examined int
	// partialE accumulates the exact per-task energies of the partial plan.
	partialE float64
	// suffixMinE[i] lower-bounds the total energy of tasks i..n-1 on their
	// individually cheapest cores, ignoring communication (admissible).
	suffixMinE []float64
}

// searchCores precomputes the suffix bounds, seeds the incumbent with a greedy
// energy-first plan so the energy bound prunes from the first branch, and
// runs the DFS.
func searchCores(mod *costmodel.Model, g *costmodel.Graph, lset float64, prune bool) Result {
	st := &searchState{
		mod:   mod,
		g:     g,
		lset:  lset,
		cores: allCores(mod.Machine()),
		prune: prune,
		cur:   make(costmodel.Plan, len(g.Tasks)),
		busy:  make([]float64, mod.Machine().NumCores()),
		bestE: math.Inf(1),
	}
	st.buildSuffixBounds()
	if seed, ok := st.greedyEnergyPlan(); ok {
		est := mod.Estimate(g, seed, lset)
		if est.Feasible {
			st.bestE = est.EnergyPerByte
			st.bestPlan = seed
		}
	}
	st.dfs(0)
	res := Result{PlansExamined: st.examined}
	if st.bestPlan != nil {
		res.Plan = st.bestPlan
		res.Estimate = mod.Estimate(g, st.bestPlan, lset)
		res.Feasible = true
		return res
	}
	// Nothing feasible: best-effort minimal-latency plan, flagged infeasible.
	fallback := st.greedyMinLatencyPlan()
	res.Plan = fallback
	res.Estimate = mod.Estimate(g, fallback, lset)
	res.Feasible = len(g.Tasks) == 0
	return res
}

// taskComp returns the task's computation latency on a core (without the
// per-batch startup term — a safe underestimate for pruning).
func (st *searchState) taskComp(t costmodel.Task, core int) float64 {
	eta := st.mod.EstEta(core, t.Kappa)
	if eta <= 0 {
		return math.Inf(1)
	}
	instrScale, _ := st.mod.Calibration()
	l := t.InstrPerByte * instrScale / eta
	if t.Replicas > 1 {
		l *= costmodel.ReplicaLatencyFactor
	}
	return l
}

// taskEnergy returns the task's exact per-byte energy on a core given the
// (already assigned) upstream placements, matching Model.Estimate.
func (st *searchState) taskEnergy(idx, core int) float64 {
	t := st.g.Tasks[idx]
	instrScale, _ := st.mod.Calibration()
	zeta := st.mod.EstZeta(core, t.Kappa)
	var e float64
	if zeta > 0 {
		e = t.InstrPerByte * instrScale / zeta
	}
	e += costmodel.ReplicaOverhead(t)
	e += costmodel.TaskBatchEnergyUJ / float64(st.g.BatchBytes)
	if !st.mod.CommBlind {
		for _, edge := range st.g.Inputs(idx) {
			from := st.cur[edge.From]
			if from != core {
				e += edge.BytesPerStreamByte * st.mod.Machine().CommEnergyPerByte(from, core)
			}
		}
	}
	return e
}

// buildSuffixBounds precomputes the admissible per-suffix energy bound.
func (st *searchState) buildSuffixBounds() {
	n := len(st.g.Tasks)
	st.suffixMinE = make([]float64, n+1)
	for i := n - 1; i >= 0; i-- {
		t := st.g.Tasks[i]
		instrScale, _ := st.mod.Calibration()
		minE := math.Inf(1)
		for _, core := range st.cores {
			zeta := st.mod.EstZeta(core, t.Kappa)
			if zeta <= 0 {
				continue
			}
			e := t.InstrPerByte * instrScale / zeta
			if e < minE {
				minE = e
			}
		}
		if math.IsInf(minE, 1) {
			minE = 0
		}
		minE += costmodel.ReplicaOverhead(t)
		minE += costmodel.TaskBatchEnergyUJ / float64(st.g.BatchBytes)
		st.suffixMinE[i] = st.suffixMinE[i+1] + minE
	}
}

// greedyEnergyPlan assigns each task to its cheapest core with latency
// headroom; ok is false when some task does not fit anywhere.
func (st *searchState) greedyEnergyPlan() (costmodel.Plan, bool) {
	p := make(costmodel.Plan, len(st.g.Tasks))
	busy := make([]float64, st.mod.Machine().NumCores())
	for i := range st.g.Tasks {
		best, bestE := -1, math.Inf(1)
		for _, core := range st.cores {
			l := st.taskComp(st.g.Tasks[i], core)
			if busy[core]+l > st.lset {
				continue
			}
			st.cur[i] = core // taskEnergy reads upstream placements from cur
			if e := st.taskEnergy(i, core); e < bestE {
				bestE = e
				best = core
			}
		}
		if best < 0 {
			return nil, false
		}
		p[i] = best
		st.cur[i] = best
		busy[best] += st.taskComp(st.g.Tasks[i], best)
	}
	return p, true
}

// greedyMinLatencyPlan spreads tasks over the fastest cores, the best-effort
// answer when the constraint is unsatisfiable.
func (st *searchState) greedyMinLatencyPlan() costmodel.Plan {
	p := make(costmodel.Plan, len(st.g.Tasks))
	busy := make([]float64, st.mod.Machine().NumCores())
	for i, t := range st.g.Tasks {
		best, bestL := st.cores[0], math.Inf(1)
		for _, core := range st.cores {
			if l := busy[core] + st.taskComp(t, core); l < bestL {
				bestL = l
				best = core
			}
		}
		p[i] = best
		busy[best] += st.taskComp(t, best)
	}
	return p
}

func (st *searchState) dfs(idx int) {
	if idx == len(st.g.Tasks) {
		st.examined++
		est := st.mod.Estimate(st.g, st.cur, st.lset)
		if est.Feasible && est.EnergyPerByte < st.bestE {
			st.bestE = est.EnergyPerByte
			st.bestPlan = st.cur.Clone()
		}
		return
	}
	t := st.g.Tasks[idx]
	m := st.mod.Machine()
	// Symmetry breaking: among candidate cores that are indistinguishable at
	// this point (same type, same frequency, same accumulated busy time),
	// only the first is explored — this is the memoization that makes the
	// enumeration tractable.
	type classKey struct {
		t    amp.CoreType
		freq int
		busy float64
	}
	seen := map[classKey]bool{}
	for _, core := range st.cores {
		c := m.Core(core)
		key := classKey{c.Type, c.FreqMHz, st.busy[core]}
		if seen[key] {
			continue
		}
		seen[key] = true

		l := st.taskComp(t, core)
		if math.IsInf(l, 1) {
			continue
		}
		if st.prune && st.busy[core]+l > st.lset {
			// Busy time only grows; this branch can never become feasible.
			continue
		}
		e := st.taskEnergy(idx, core)
		if st.prune && st.partialE+e+st.suffixMinE[idx+1] >= st.bestE {
			// Admissible bound: even with every remaining task on its
			// individually cheapest core this branch cannot improve.
			continue
		}
		st.cur[idx] = core
		// Save/restore instead of add/subtract: floating-point subtraction
		// does not exactly undo addition, and ulp drift in busy would split
		// the symmetry classes above, defeating the memoization.
		oldBusy, oldE := st.busy[core], st.partialE
		st.busy[core] = oldBusy + l
		st.partialE = oldE + e
		st.dfs(idx + 1)
		st.partialE = oldE
		st.busy[core] = oldBusy
	}
}

// RoundRobin maps tasks to cores sequentially (mechanism RR).
func RoundRobin(g *costmodel.Graph, numCores int) costmodel.Plan {
	p := make(costmodel.Plan, len(g.Tasks))
	for i := range p {
		p[i] = i % numCores
	}
	return p
}

// RoundRobinOrder maps tasks sequentially over an explicit core order.
func RoundRobinOrder(g *costmodel.Graph, order []int) costmodel.Plan {
	p := make(costmodel.Plan, len(g.Tasks))
	for i := range p {
		p[i] = order[i%len(order)]
	}
	return p
}

// RandomOn maps every task to a uniformly random core of the given subset
// (mechanisms BO and LO).
func RandomOn(g *costmodel.Graph, cores []int, s *amp.Sampler) costmodel.Plan {
	p := make(costmodel.Plan, len(g.Tasks))
	for i := range p {
		p[i] = cores[s.Intn(len(cores))]
	}
	return p
}

// EASPlacement emulates the Linux energy-aware scheduler for the OS
// baseline. EAS sees tasks as black boxes: it knows only their aggregate
// utilization (demanded instructions against the core's peak capacity, not
// the κ-dependent effective throughput), prefers the most energy-efficient
// core with headroom, and therefore systematically underestimates stage
// latency on little cores.
func EASPlacement(m *amp.Machine, g *costmodel.Graph) costmodel.Plan {
	p := make(costmodel.Plan, len(g.Tasks))
	util := make([]float64, m.NumCores())
	for i, t := range g.Tasks {
		best, bestScore := 0, math.Inf(1)
		for _, core := range allCores(m) {
			cap := m.Capacity(core)
			// Black-box demand estimate: instructions at peak throughput.
			demand := t.InstrPerByte / cap
			if util[core]+demand > 1.0 {
				continue // no headroom
			}
			// EAS energy proxy: little cores score better.
			score := demand
			if m.Core(core).Type == amp.Big {
				score *= 2.4 // big cores are roughly 2-3× less efficient per instr
			}
			score += util[core] * 0.1 // mild load balancing
			if score < bestScore {
				bestScore = score
				best = core
			}
		}
		if math.IsInf(bestScore, 1) {
			// Everything saturated: spill to the least-loaded core.
			least := 0
			for c := 1; c < m.NumCores(); c++ {
				if util[c] < util[least] {
					least = c
				}
			}
			best = least
		}
		p[i] = best
		util[best] += t.InstrPerByte / m.Capacity(best)
	}
	return p
}
