package core

import (
	"context"
	"fmt"

	"repro/internal/compress"
	"repro/internal/stream"
)

// StageWorkers returns the deployment's worker count per runnable pipeline
// stage (the replication decision) and the data-parallel slice count, both
// fixed at deploy for the deployed workload's algorithm — the argument is
// not consulted. The slice count is the canonical plan-invariant width:
// compressed output is a pure function of (algorithm, batch, platform,
// planned batch size), so replans and cache hits can reshape worker pools
// freely without ever changing the bytes a stream observes. The workers
// slice is shared: do not modify it.
func (d *Deployment) StageWorkers(compress.Algorithm) (workers []int, slices int) {
	return d.workers, d.Slices
}

// stageWorkers maps logical tasks onto the algorithm's runnable pipeline
// stages: a stage runs with the replication of the task holding its first
// step.
func stageWorkers(alg compress.Algorithm, tasks []LogicalTask) []int {
	stageSets := compress.StageSets(alg)
	workers := make([]int, len(stageSets))
	for si, set := range stageSets {
		w := 1
		for _, lt := range tasks {
			for _, s := range lt.Steps {
				if s == set[0] {
					w = lt.Replicas
				}
			}
		}
		workers[si] = max(w, 1)
	}
	return workers
}

// RunBatchObserved functionally compresses batch index of the workload
// through the deployment's pipeline: each of the batch's slices runs the
// algorithm's kernel, with data parallelism bounded by the replication
// decision, and ctx cancels the pipelined runtime cooperatively. The
// compressed output is real and independently decodable per slice. obs
// receives one callback per completed slice, named after the algorithm,
// which is how the telemetry layer records execution spans from live runs;
// a nil obs is the plain unobserved path.
func (d *Deployment) RunBatchObserved(ctx context.Context, w Workload, index int, obs compress.StageObserver) (*compress.PipelineResult, error) {
	if w.Name() != d.Workload {
		return nil, fmt.Errorf("core: deployment is for %s, got %s", d.Workload, w.Name())
	}
	return d.RunBatchData(ctx, w.Algorithm, w.Dataset.Batch(index, w.BatchBytes), obs)
}

// RunBatchData compresses a caller-supplied batch through the deployment's
// planned pipeline — the source-agnostic execution path shared by the
// dataset-bound entry point above, the facade's Session.Push, and the serve
// layer's per-session stream handles. The batch's bytes need not come from
// the profiled dataset; the plan only fixes the parallel width, never the
// output bytes.
func (d *Deployment) RunBatchData(ctx context.Context, alg compress.Algorithm, b *stream.Batch, obs compress.StageObserver) (*compress.PipelineResult, error) {
	workers, slices := d.StageWorkers(alg)
	// Caller-supplied batches (Session.Push accepts any size) are cut by the
	// same rule as the planned batch size, within the deployment's width.
	return compress.RunPipelineContext(ctx, alg, b, compress.SliceCount(b.Size(), slices), workers, obs)
}
