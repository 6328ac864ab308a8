package cstream

import (
	"fmt"
	"io"

	"repro/internal/dataset"
)

// Source supplies a Session's input identity: the deterministic sample data
// the planner profiles at NewSession time, plus the name the workload is
// labeled with. Three implementations cover the supported ingest paths:
//
//   - DatasetSource wraps the built-in synthetic generators (Sensor, Rovio,
//     Stock, Micro), the workloads of the paper's evaluation;
//   - BytesSource wraps an in-memory sample of caller-supplied data, the
//     path a network front-end uses when the real stream arrives over a
//     socket;
//   - ReaderSource reads its sample from an io.Reader (a file, a recorded
//     trace, a network capture) at NewSession time.
//
// The interface is sealed: the unexported resolve method keeps the set of
// implementations inside this package, so the planner's profiling contract
// (deterministic, replayable sample batches) cannot be broken from outside.
type Source interface {
	// Name labels the source; it appears in workload names such as
	// "tcomp32-Rovio" and in per-stream telemetry.
	Name() string

	// resolve materializes the generator the planner profiles.
	// sessionSeed is the session's seed for sources without one of their
	// own.
	resolve(sessionSeed int64) (dataset.Generator, error)

	// preferredSeed reports a seed the source carries (DatasetSource), so
	// NewSession can default the whole session to it when WithSeed is not
	// given: one seed then drives both the data and the planner.
	preferredSeed() (int64, bool)
}

// DatasetSource names one of the built-in synthetic datasets (Sensor, Rovio,
// Stock, Micro) as a Session's source, generated from seed, which also
// becomes the session seed unless WithSeed overrides it. An unknown name
// surfaces as an error from NewSession, not here.
func DatasetSource(name string, seed int64) Source {
	return &datasetSource{name: name, seed: seed}
}

type datasetSource struct {
	name string
	seed int64
}

// Name implements Source.
func (s *datasetSource) Name() string { return s.name }

func (s *datasetSource) resolve(int64) (dataset.Generator, error) {
	return dataset.ByName(s.name, s.seed)
}

func (s *datasetSource) preferredSeed() (int64, bool) { return s.seed, true }

// BytesSource wraps an in-memory data sample as a Session's source. The
// planner profiles batches tiled from the sample (wrapping around its end),
// so the sample should be statistically representative of the bytes the
// caller will Push; the live data itself is supplied per batch via
// Session.Push. tupleSize is the framing width in bytes (0 selects the
// 32-bit-word default shared by the evaluated kernels). An empty sample
// surfaces as an error from NewSession.
func BytesSource(name string, sample []byte, tupleSize int) Source {
	return &bytesSource{name: name, sample: sample, tuple: tupleSize}
}

type bytesSource struct {
	name   string
	sample []byte
	tuple  int
}

// Name implements Source.
func (s *bytesSource) Name() string { return s.name }

func (s *bytesSource) resolve(int64) (dataset.Generator, error) {
	return dataset.NewReplay(s.name, s.sample, s.tuple)
}

func (s *bytesSource) preferredSeed() (int64, bool) { return 0, false }

// MaxReaderSample bounds how many sample bytes ReaderSource reads at
// NewSession time for profiling.
const MaxReaderSample = 1 << 20

// ReaderSource reads a profiling sample (at most MaxReaderSample bytes) from
// r at NewSession time and then behaves like BytesSource. Read errors and an
// empty reader surface as errors from NewSession.
func ReaderSource(name string, r io.Reader, tupleSize int) Source {
	return &readerSource{name: name, r: r, tuple: tupleSize}
}

type readerSource struct {
	name  string
	r     io.Reader
	tuple int
}

// Name implements Source.
func (s *readerSource) Name() string { return s.name }

func (s *readerSource) resolve(int64) (dataset.Generator, error) {
	sample, err := io.ReadAll(io.LimitReader(s.r, MaxReaderSample))
	if err != nil {
		return nil, fmt.Errorf("cstream: reading source sample: %w", err)
	}
	return dataset.NewReplay(s.name, sample, s.tuple)
}

func (s *readerSource) preferredSeed() (int64, bool) { return 0, false }
