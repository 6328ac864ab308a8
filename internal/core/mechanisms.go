package core

import (
	"fmt"
	"hash/fnv"
	"strings"
	"sync/atomic"

	"repro/internal/amp"
	"repro/internal/compress"
	"repro/internal/costmodel"
	"repro/internal/plancache"
	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

// Mechanism names, matching the paper's Section VI-A and the break-down
// factors of Section VII-D. They are re-exports of the policy registry's
// canonical names, kept for compatibility with the pre-registry API.
const (
	MechCStream = policy.CStream
	MechOS      = policy.OS
	MechCS      = policy.CS
	MechRR      = policy.RR
	MechBO      = policy.BO
	MechLO      = policy.LO

	MechSimple  = policy.Simple
	MechDecom   = policy.Decom
	MechAsyComp = policy.AsyComp
	MechAsyComm = policy.AsyComm
)

// Mechanisms lists the six end-to-end competing mechanisms in paper order
// (a view of the policy registry).
func Mechanisms() []string { return policy.Mechanisms() }

// BreakdownFactors lists the Section VII-D ablation variants in paper order
// (a view of the policy registry).
func BreakdownFactors() []string { return policy.BreakdownFactors() }

// ExtensionPolicies lists the scheduling policies registered beyond the
// paper's evaluation (e.g. the HEFT-style list scheduler and the
// chain-replication policy).
func ExtensionPolicies() []string { return policy.Extensions() }

// Deployment is a fully planned parallelization of a workload: the task
// graph after decomposition and replication, the scheduling plan, the
// model's estimate, and an executor configured with the policy's runtime
// overheads.
type Deployment struct {
	// Mechanism is the registered name of the scheduling policy that planned
	// this deployment; PolicyParams is its parameter string ("" for the
	// parameterless built-ins).
	Mechanism    string
	PolicyParams string
	Workload     string
	Profile      *Profile
	// Tasks are the logical tasks after decomposition and replication.
	Tasks    []LogicalTask
	Graph    *costmodel.Graph
	Plan     costmodel.Plan
	Estimate costmodel.Estimate
	// Feasible reports whether the mechanism's own planning believed the
	// latency constraint was met.
	Feasible bool
	// Slices is the canonical plan-invariant data-parallel width of the
	// functional pipeline: compress.SliceCount of the planned batch size,
	// capped at twice the core count (the bound that caps replication, so
	// no stage out-numbers its slices). It never changes across replans, so
	// a stream's compressed bytes are independent of which plan it runs
	// under.
	Slices int
	// Executor runs the deployment on the simulated platform.
	Executor *costmodel.Executor

	// workers is StageWorkers' per-stage mapping, fixed at deploy.
	workers []int
}

// Planner plans workloads on one platform with one fitted cost model.
type Planner struct {
	Machine *amp.Machine
	Model   *costmodel.Model
	Seed    int64
	// DVFSPolicy labels the frequency-governance regime for plan-cache
	// keying; empty means the default governor.
	DVFSPolicy string
	// Telemetry, when non-nil, receives planning metrics and one decision-log
	// event per deploy, re-plan, and measurement. A nil sink (the default)
	// keeps every instrumentation site a single pointer comparison.
	Telemetry *telemetry.Sink

	// ablated holds the comm-symmetric model for the +asy-comp. factor,
	// built lazily together with its machine view.
	ablatedModel *costmodel.Model
	// cache, when enabled, short-circuits plan search for workloads whose
	// quantized statistics match a previously planned regime exactly.
	cache *plancache.PlanCache
	// searches counts plan-search invocations (cache-effectiveness metric).
	searches atomic.Int64
}

// NewPlanner profiles the machine and fits the cost model.
func NewPlanner(m *amp.Machine, seed int64) (*Planner, error) {
	mod, err := costmodel.NewModel(m, seed)
	if err != nil {
		return nil, err
	}
	return &Planner{Machine: m, Model: mod, Seed: seed}, nil
}

// maxReplicationIters bounds the iterative scaling loop.
const maxReplicationIters = 16

// replicateAndPlace runs the topologically-sorted iterative scaling of
// Section IV-B: place the current graph, and while the latency constraint is
// missed, replicate the bottleneck logical task — until feasible or the
// platform saturates (total tasks reaching twice the core count).
func (pl *Planner) replicateAndPlace(
	tasks []LogicalTask, batchBytes int, lset float64,
	place func(*costmodel.Graph) costmodel.Plan,
) (*costmodel.Graph, costmodel.Plan, costmodel.Estimate, bool) {
	return pl.replicateAndPlaceWith(pl.Model, tasks, batchBytes, lset, place)
}

// replicateAndPlaceWith lets ablated policies judge feasibility with their
// own (possibly blind) model — what they believe drives how they scale.
func (pl *Planner) replicateAndPlaceWith(
	mod *costmodel.Model,
	tasks []LogicalTask, batchBytes int, lset float64,
	place func(*costmodel.Graph) costmodel.Plan,
) (*costmodel.Graph, costmodel.Plan, costmodel.Estimate, bool) {
	maxTasks := 2 * pl.Machine.NumCores()
	for iter := 0; ; iter++ {
		g := BuildGraph(tasks, batchBytes)
		p := place(g)
		est := mod.Estimate(g, p, lset)
		if est.Feasible {
			return g, p, est, true
		}
		total := len(g.Tasks)
		if total >= maxTasks || iter >= maxReplicationIters {
			return g, p, est, false
		}
		// Bottleneck graph task → owning logical task.
		bottleneck := 0
		for i, l := range est.PerTaskLatency {
			if l > est.PerTaskLatency[bottleneck] {
				bottleneck = i
			}
		}
		tasks[logicalOf(tasks, bottleneck)].Replicas++
	}
}

// searchReplication is the model-guided policies' full replication search:
// first the feasibility-driven iterative scaling, then a greedy hill-climb
// that keeps replicating whichever logical task lowers the estimated energy
// (replicas can move work onto cheap little cores that a single task could
// not fit under the latency constraint).
func (pl *Planner) searchReplication(
	t *searchTally, mod *costmodel.Model, base []LogicalTask, batchBytes int, lset float64,
) ([]LogicalTask, *costmodel.Graph, costmodel.Plan, costmodel.Estimate, bool) {
	tasks := cloneTasks(base)
	g, p, est, feasible := pl.replicateAndPlaceWith(mod, tasks, batchBytes, lset,
		func(g *costmodel.Graph) costmodel.Plan {
			return pl.searchPlan(t, mod, g, lset).Plan
		})
	if !feasible {
		return tasks, g, p, est, false
	}
	maxTasks := 2 * pl.Machine.NumCores()
	// Greedy hill-climb with plateau patience: adopt the best single-task
	// replication even when it does not immediately improve (up to two
	// consecutive non-improving steps), so configurations like "one more
	// replica frees a little core for the write task" are reachable.
	bestTasks, bestG, bestP, bestEst := tasks, g, p, est
	patience := 2
	for len(g.Tasks) < maxTasks {
		type trialResult struct {
			tasks []LogicalTask
			graph *costmodel.Graph
			plan  costmodel.Plan
			est   costmodel.Estimate
		}
		var bestTrial *trialResult
		for li := range tasks {
			trial := cloneTasks(tasks)
			trial[li].Replicas++
			tg := BuildGraph(trial, batchBytes)
			if len(tg.Tasks) > maxTasks {
				continue
			}
			res := pl.searchPlan(t, mod, tg, lset)
			if !res.Feasible {
				continue
			}
			if bestTrial == nil || res.Estimate.EnergyPerByte < bestTrial.est.EnergyPerByte {
				bestTrial = &trialResult{trial, tg, res.Plan, res.Estimate}
			}
		}
		if bestTrial == nil {
			break
		}
		tasks, g, p, est = bestTrial.tasks, bestTrial.graph, bestTrial.plan, bestTrial.est
		if est.EnergyPerByte < bestEst.EnergyPerByte-1e-9 {
			bestTasks, bestG, bestP, bestEst = tasks, g, p, est
			patience = 2
		} else {
			patience--
			if patience < 0 {
				break
			}
		}
	}
	return bestTasks, bestG, bestP, bestEst, true
}

// logicalOf maps a graph task index back to its logical task (replicas are
// laid out consecutively by BuildGraph).
func logicalOf(tasks []LogicalTask, graphIdx int) int {
	acc := 0
	for li, t := range tasks {
		r := t.Replicas
		if r < 1 {
			r = 1
		}
		if graphIdx < acc+r {
			return li
		}
		acc += r
	}
	return len(tasks) - 1
}

// cloneTasks copies logical tasks so replication never mutates a profile's
// canonical decomposition.
func cloneTasks(in []LogicalTask) []LogicalTask {
	return costmodel.CloneTasks(in)
}

// deploySeed derives a deterministic per-(workload, policy) seed.
func (pl *Planner) deploySeed(workload, mech string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%d", workload, mech, pl.Seed)
	return int64(h.Sum64() & 0x7FFFFFFFFFFF)
}

// lookupPolicy resolves a registered scheduling policy, listing the
// registered names when the lookup fails so a typo on a CLI flag or facade
// option surfaces immediately instead of deep inside planning.
func lookupPolicy(name string) (policy.Policy, error) {
	pol, ok := policy.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown policy %q (registered: %s)",
			name, strings.Join(policy.Names(), ", "))
	}
	return pol, nil
}

// Deploy plans workload w under the named scheduling policy.
func (pl *Planner) Deploy(w Workload, mech string) (*Deployment, error) {
	prof := ProfileWorkload(w, 10, 0)
	return pl.DeployProfile(w, prof, mech)
}

// deployContext binds one deployment's workload, profile, policy and
// telemetry tally into the capability surface (policy.Host) the policies
// plan against. Policies stay stateless; everything per-deploy lives here.
type deployContext struct {
	pl      *Planner
	w       Workload
	prof    *Profile
	pol     policy.Policy
	tally   *searchTally
	sampler *amp.Sampler
}

// Machine is the simulated platform.
func (c *deployContext) Machine() *amp.Machine { return c.pl.Machine }

// Model is the planner's fitted cost model.
func (c *deployContext) Model() *costmodel.Model { return c.pl.Model }

// CommBlindModel lazily builds the communication-symmetric ablation.
func (c *deployContext) CommBlindModel() (*costmodel.Model, error) {
	return c.pl.asyCompModel()
}

// Sampler lazily builds this deployment's deterministic random source,
// seeded per (workload, policy) exactly as the pre-registry code did.
func (c *deployContext) Sampler() *amp.Sampler {
	if c.sampler == nil {
		c.sampler = amp.NewSampler(c.pl.deploySeed(c.w.Name(), c.pol.Name()))
	}
	return c.sampler
}

// SearchPlan runs the full plan search under mod, charging the tally.
func (c *deployContext) SearchPlan(mod *costmodel.Model, g *costmodel.Graph, lset float64) sched.Result {
	return c.pl.searchPlan(c.tally, mod, g, lset)
}

// ReplicateAndPlace runs the Section IV-B iterative scaling; nil mod means
// the true model.
func (c *deployContext) ReplicateAndPlace(
	mod *costmodel.Model, tasks []LogicalTask, lset float64, place policy.PlaceFunc,
) (*costmodel.Graph, costmodel.Plan, costmodel.Estimate, bool) {
	if mod == nil {
		mod = c.pl.Model
	}
	return c.pl.replicateAndPlaceWith(mod, tasks, c.w.BatchBytes, lset, place)
}

// CachedSearchReplication is the cache-fronted model-guided replication
// search, keyed by this deployment's policy identity.
func (c *deployContext) CachedSearchReplication(
	base []LogicalTask,
) ([]LogicalTask, *costmodel.Graph, costmodel.Plan, costmodel.Estimate, bool) {
	return c.pl.cachedSearchReplication(c.tally, c.pol, c.w, c.prof, base)
}

// DeployProfile plans from an existing profile (reused across policies to
// avoid re-profiling in sweep experiments), dispatching through the policy
// registry.
func (pl *Planner) DeployProfile(w Workload, prof *Profile, mech string) (*Deployment, error) {
	pol, err := lookupPolicy(mech)
	if err != nil {
		return nil, err
	}
	tally := &searchTally{}
	ctx := &deployContext{pl: pl, w: w, prof: prof, pol: pol, tally: tally}
	res, err := pol.Deploy(ctx, policy.Request{
		Workload:    w.Name(),
		BatchBytes:  w.BatchBytes,
		LSet:        w.LSet,
		DefaultLSet: DefaultLSet,
		Fine:        Decompose(prof, pl.Machine),
		Whole:       DecomposeWhole(prof),
	})
	if err != nil {
		return nil, fmt.Errorf("core: policy %s: %w", pol.Name(), err)
	}
	d := &Deployment{
		Mechanism:    pol.Name(),
		PolicyParams: pol.Params(),
		Workload:     w.Name(),
		Profile:      prof,
		Tasks:        res.Tasks,
		Graph:        res.Graph,
		Plan:         res.Plan,
		Estimate:     res.Estimate,
		Feasible:     res.Feasible,
		Slices:       compress.SliceCount(w.BatchBytes, 2*len(pl.Machine.Cores())),
		Executor:     pl.executorFor(pol, w),
		workers:      stageWorkers(w.Algorithm, res.Tasks),
	}
	pl.recordDeploy(telemetry.KindDeploy, d, tally, -1)
	return d, nil
}

// asyCompModel lazily builds the communication-blind model used by the
// +asy-comp. factor: identical computation awareness (all of Section V-B's
// modeling), but the asymmetric communication effects are ignored — plans
// are judged as if data moved between cores for free, which is what makes
// the variant "too aggressive" and latency-violating in Fig. 17.
func (pl *Planner) asyCompModel() (*costmodel.Model, error) {
	if pl.ablatedModel != nil {
		return pl.ablatedModel, nil
	}
	mod, err := costmodel.NewModel(pl.Machine, pl.Seed)
	if err != nil {
		return nil, err
	}
	mod.CommBlind = true
	pl.ablatedModel = mod
	return mod, nil
}

// executorFor configures the measurement executor with the policy's runtime
// overheads.
func (pl *Planner) executorFor(pol policy.Policy, w Workload) *costmodel.Executor {
	ex := &costmodel.Executor{
		M:       pl.Machine,
		Sampler: amp.NewSampler(pl.deploySeed(w.Name(), pol.Name()) + 1),
		Meter:   amp.NewMeter(pl.deploySeed(w.Name(), pol.Name()) + 2),
	}
	ex.SetOverheads(pol.Overheads(w.BatchBytes))
	return ex
}
