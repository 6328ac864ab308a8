package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dataset"
)

// shape is one kind of session: what a client asks for at open, plus the ring
// of distinct payload batches the generator cycles through for it. Payloads
// are made from the run's seed before anything is timed; the program under
// test only ever sees these bytes.
type shape struct {
	alg        string
	slo        string
	dataset    string
	batchBytes int
	ring       [][]byte
}

func (s *shape) String() string {
	return fmt.Sprintf("%s/%s/%s/%dB", s.alg, s.dataset, s.slo, s.batchBytes)
}

// sloLSet maps the default service catalog's class names onto their latency
// constraint, for building the library-path reference of a served session.
var sloLSet = map[string]float64{"gold": 18, "silver": 26, "bronze": 200}

func newShape(alg, datasetName, slo string, batchBytes, ringLen int, seed int64) (*shape, error) {
	gen, err := dataset.ByName(datasetName, seed)
	if err != nil {
		return nil, err
	}
	s := &shape{alg: alg, slo: slo, dataset: datasetName, batchBytes: batchBytes}
	for i := 0; i < ringLen; i++ {
		b := gen.Batch(i, batchBytes).Bytes()
		if len(b) == 0 {
			return nil, fmt.Errorf("dataset %s produced an empty batch of %d bytes", datasetName, batchBytes)
		}
		s.ring = append(s.ring, b)
	}
	return s, nil
}

// Session-churn's shape space: 48 geometric batch sizes from 4 KiB to ~31 KiB
// (2^(1/16) apart, rounded to 16 B) x 6 algorithms x 2 SLO classes = 576
// shapes. The spacing is half a plan-cache signature bucket (the cache
// quantizes batch size to ~9 %), so neighbouring sizes can share a cached
// plan; the count is sized to the round: a fresh server hashes every open
// onto one of four shards, so with ~8000 cycles a round each shape is opened
// 14 times and about 28 % of the opens find their (shape, shard) pair
// unplanned.
const churnSizes = 48

var (
	churnAlgs = []string{"tcomp32", "tdic32", "lz4", "delta32", "rle32", "huff8"}
	churnSLOs = []string{"silver", "bronze"}
)

const churnShapes = churnSizes * 6 * 2

func churnBatchBytes(i int) int {
	b := 4096 * math.Pow(2, float64(i)/16)
	return int(math.Round(b/16)) * 16
}

// cycle is one attach cycle of the churn trace: open a session of this
// shape, push one batch of its size, close.
type cycle struct{ size, alg, slo uint8 }

// shapeID packs a cycle's shape into the index used for cold/warm tracking.
func (c cycle) shapeID() int {
	return (int(c.size)*len(churnAlgs)+int(c.alg))*len(churnSLOs) + int(c.slo)
}

// churnTrace derives one walk per generator from the seed. A walk sweeps the
// batch sizes one step at a time, up then down, and at each end of a sweep
// moves on to the next (algorithm, SLO class) pair of a seeded permutation —
// so consecutive opens are near misses of each other (a neighbouring size
// often lands in the same plan-cache signature bucket, a new algorithm never
// does). The seed decides which way each walk goes first and the order of the
// pairs; how often each shape is opened does not depend on it (a walk of k x
// churnShapes cycles opens every shape k times), which is what keeps the cold
// share of a round — and with it every timing — comparable from one seed to
// the next.
func churnTrace(seed int64, gens, cyclesPerGen int) [][]cycle {
	out := make([][]cycle, gens)
	for g := range out {
		rng := rand.New(rand.NewSource(seed*7919 + int64(g)*104729 + 11))
		lanes := rng.Perm(len(churnAlgs) * len(churnSLOs))
		up, lane := rng.Intn(2) == 0, 0
		size := 0
		if !up {
			size = churnSizes - 1
		}
		walk := make([]cycle, cyclesPerGen)
		for i := range walk {
			l := lanes[lane%len(lanes)]
			walk[i] = cycle{size: uint8(size), alg: uint8(l / len(churnSLOs)), slo: uint8(l % len(churnSLOs))}
			switch {
			case up && size == churnSizes-1, !up && size == 0:
				up = !up
				lane++
			case up:
				size++
			default:
				size--
			}
		}
		out[g] = walk
	}
	return out
}

// churnPayloads makes one Micro batch per batch size.
func churnPayloads(seed int64) [][]byte {
	gen := dataset.NewMicro(seed)
	out := make([][]byte, churnSizes)
	for i := range out {
		out[i] = gen.Batch(i, churnBatchBytes(i)).Bytes()
	}
	return out
}
