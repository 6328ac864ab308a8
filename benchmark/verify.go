package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"

	"repro/internal/amp"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/stream"
)

// serverSeed is the serve.Config seed every workload runs the server with;
// everything else in the config is Config.Defaults(), so the benchmark
// measures what an operator gets out of the box.
const serverSeed = 42

// Defaults of serve.Config the library-path reference has to mirror to plan
// the deployment a served session of the same shape runs under.
const (
	serverProfileDataset = "Micro"
	serverProfileBatches = 2
)

// reference is the library path the correctness gate compares served frames
// against: a planner seeded like the server's shards, and one deployment per
// session shape, driven through Deployment.RunBatchData on the same bytes.
type reference struct {
	pl *core.Planner

	// mu guards deps and the planner: embed-durable's generators gate their
	// sessions' first results concurrently. Running a batch through a
	// deployment needs no lock (server sessions share deployments the same way).
	mu   sync.Mutex
	deps map[string]*refDeployment
}

type refDeployment struct {
	alg compress.Algorithm
	dep *core.Deployment
	// Stage worker pools of the deployment, for the ladder's pipeline rung.
	workers []int
	slices  int
}

func newReference() (*reference, error) {
	pl, err := core.NewPlanner(amp.NewRK3399(), serverSeed)
	if err != nil {
		return nil, err
	}
	return &reference{pl: pl, deps: map[string]*refDeployment{}}, nil
}

// workload is the proxy workload a server shard plans a session shape with.
func refWorkload(alg compress.Algorithm, batchBytes int, slo string) (core.Workload, error) {
	gen, err := dataset.ByName(serverProfileDataset, serverSeed)
	if err != nil {
		return core.Workload{}, err
	}
	lset, ok := sloLSet[slo]
	if !ok {
		return core.Workload{}, fmt.Errorf("unknown SLO class %q", slo)
	}
	w := core.NewWorkload(alg, gen)
	w.BatchBytes = batchBytes
	w.LSet = lset
	return w, nil
}

func (r *reference) deployment(alg, slo string, batchBytes int) (*refDeployment, error) {
	key := fmt.Sprintf("%s/%s/%d", alg, slo, batchBytes)
	r.mu.Lock()
	defer r.mu.Unlock()
	if d := r.deps[key]; d != nil {
		return d, nil
	}
	a, err := compress.ByName(alg)
	if err != nil {
		return nil, err
	}
	w, err := refWorkload(a, batchBytes, slo)
	if err != nil {
		return nil, err
	}
	prof := core.ProfileWorkload(w, serverProfileBatches, 0)
	dep, err := r.pl.DeployProfile(w, prof, core.MechCStream)
	if err != nil {
		return nil, err
	}
	d := &refDeployment{alg: a, dep: dep}
	d.workers, d.slices = dep.StageWorkers(a)
	r.deps[key] = d
	return d, nil
}

// compress runs data through the shape's reference deployment. The result is
// pooled: the caller Releases it.
func (r *reference) compress(alg, slo string, data []byte) (*compress.PipelineResult, error) {
	d, err := r.deployment(alg, slo, len(data))
	if err != nil {
		return nil, err
	}
	return d.dep.RunBatchData(context.Background(), d.alg, stream.NewBatchBytes(0, data), nil)
}

// sameAsReference compares a served (or pushed) result, segment by segment
// and byte for byte, with the library path's output for the same bytes. seg
// adapts the result's own segment type.
func (r *reference) sameAsReference(alg, slo string, data []byte, nsegs int, seg func(i int) compress.Segment) error {
	want, err := r.compress(alg, slo, data)
	if err != nil {
		return fmt.Errorf("library path: %w", err)
	}
	defer want.Release()
	if nsegs != len(want.Segments) {
		return fmt.Errorf("%d segments, library path has %d", nsegs, len(want.Segments))
	}
	for i := range want.Segments {
		g, w := seg(i), want.Segments[i]
		if g.BitLen != w.BitLen || g.OrigLen != w.OrigLen || !bytes.Equal(g.Compressed, w.Compressed) {
			return fmt.Errorf("segment %d differs from the library path", i)
		}
	}
	return nil
}

// errMismatch reports a decode that succeeded with the wrong bytes.
var errMismatch = fmt.Errorf("decoded bytes differ from what was pushed")

// checkDecoded folds a decode's outcome into one error.
func checkDecoded(got []byte, err error, want []byte) error {
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return errMismatch
	}
	return nil
}
