// Package dataset provides deterministic generators for the four evaluation
// datasets of the paper: three synthetic stand-ins for the real-world traces
// (Sensor, Rovio, Stock) reproducing their documented statistical properties,
// and the fully tunable Micro dataset used by the sensitivity studies.
//
// Real traces are unavailable in this environment; each generator instead
// controls exactly the statistics the paper's analysis depends on —
// vocabulary duplication, symbol duplication, dynamic range and symbol
// entropy — and is seeded so every batch is reproducible.
package dataset

import (
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/stream"
)

// Generator produces batches of stream data deterministically. Batch is a
// pure function of (receiver fields, index, size) and is safe for concurrent
// use: core.ProfileWorkload generates a profile's batches on several
// goroutines at once. Callers that retune a generator between batches, as
// internal/exp does with Micro's fields to shift a workload, must not do so
// while a profile runs.
type Generator interface {
	// Name identifies the dataset (used in workload labels like "lz4-Rovio").
	Name() string
	// Batch materializes batch number index with approximately size bytes
	// (rounded down to the dataset's tuple granularity, minimum one tuple).
	Batch(index, size int) *stream.Batch
	// TupleSize returns the dataset's tuple width in bytes.
	TupleSize() int
}

// rngFor derives an independent deterministic stream per (seed, batch).
func rngFor(seed int64, index int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(index)*7919 + 17))
}

// tupleCount converts a byte budget into a tuple count (≥ 1).
func tupleCount(size, tupleSize int) int {
	n := size / tupleSize
	if n < 1 {
		n = 1
	}
	return n
}

// Sensor emulates the Beach Weather Stations automated-sensor feed: full-text
// XML records in plain ASCII. The repeating tag structure yields partial
// vocabulary duplication and low symbol entropy (ASCII only). Each 16 ASCII
// characters form one 128-bit tuple, as in the paper.
type Sensor struct {
	Seed int64
	// Stations bounds the station-id vocabulary (default 12).
	Stations int
}

// NewSensor returns a Sensor generator with the default station vocabulary.
func NewSensor(seed int64) *Sensor { return &Sensor{Seed: seed, Stations: 12} }

// Name implements Generator.
func (s *Sensor) Name() string { return "Sensor" }

// TupleSize implements Generator. Sensor tuples are 128-bit (16 ASCII chars).
func (s *Sensor) TupleSize() int { return 16 }

// Batch implements Generator.
func (s *Sensor) Batch(index, size int) *stream.Batch {
	rng := rngFor(s.Seed, index)
	stations := s.Stations
	if stations <= 0 {
		stations = 12
	}
	buf := make([]byte, 0, size+96)
	ts := int64(1600000000) + int64(index)*1000
	for len(buf) < size {
		ts += int64(rng.Intn(30) + 1)
		// One record, the bytes of
		// "<obs><st>BEACH%02d</st><ts>%d</ts><tmp>%0.2f</tmp><hum>%02d</hum><wnd>%0.1f</wnd></obs>\n"
		// appended in place, its fields drawn in that order.
		st, tmp, hum, wnd := rng.Intn(stations), 15+rng.Float64()*15, 40+rng.Intn(55), rng.Float64()*20
		buf = appendPad2(append(buf, "<obs><st>BEACH"...), st)
		buf = strconv.AppendInt(append(buf, "</st><ts>"...), ts, 10)
		buf = strconv.AppendFloat(append(buf, "</ts><tmp>"...), tmp, 'f', 2, 64)
		buf = appendPad2(append(buf, "</tmp><hum>"...), hum)
		buf = strconv.AppendFloat(append(buf, "</hum><wnd>"...), wnd, 'f', 1, 64)
		buf = append(buf, "</wnd></obs>\n"...)
	}
	// Truncate to whole 16-byte tuples.
	n := tupleCount(size, 16) * 16
	if n > len(buf) {
		n = len(buf) / 16 * 16
	}
	return stream.NewFramedBatch(index, buf[:n], 16)
}

// Rovio emulates the game-telemetry trace: (64-bit key, 64-bit payload)
// records where a small hot key set yields high vocabulary duplication.
type Rovio struct {
	Seed int64
	// HotKeys bounds the duplicated key vocabulary (default 64).
	HotKeys int
}

// NewRovio returns a Rovio generator with the default hot-key pool.
func NewRovio(seed int64) *Rovio { return &Rovio{Seed: seed, HotKeys: 64} }

// Name implements Generator.
func (r *Rovio) Name() string { return "Rovio" }

// TupleSize implements Generator. Rovio tuples are 64-bit key + 64-bit payload.
func (r *Rovio) TupleSize() int { return 16 }

// Batch implements Generator.
func (r *Rovio) Batch(index, size int) *stream.Batch {
	rng := rngFor(r.Seed, index)
	hot := r.HotKeys
	if hot <= 0 {
		hot = 64
	}
	keys := make([]uint64, hot)
	keyRng := rngFor(r.Seed, -1) // key vocabulary shared across batches
	for i := range keys {
		keys[i] = keyRng.Uint64() & 0xFFFFFF // narrow-range user ids
	}
	n := tupleCount(size, 16)
	buf := make([]byte, n*16)
	for i := 0; i < n; i++ {
		var key uint64
		if rng.Float64() < 0.92 { // high key duplication
			key = keys[rng.Intn(hot)]
		} else {
			key = rng.Uint64() & 0xFFFFFF
		}
		payload := uint64(rng.Intn(512)) // small action codes
		putU64(buf[i*16:], key)
		putU64(buf[i*16+8:], payload)
	}
	return stream.NewFramedBatch(index, buf, 16)
}

// Stock emulates the Shanghai stock-exchange trace: (32-bit key, 32-bit
// payload) binary records with *low* key duplication and wide price range.
type Stock struct {
	Seed int64
	// Symbols bounds the instrument universe (default 4096; large enough that
	// per-batch duplication stays low).
	Symbols int
}

// NewStock returns a Stock generator with the default instrument universe.
func NewStock(seed int64) *Stock { return &Stock{Seed: seed, Symbols: 4096} }

// Name implements Generator.
func (s *Stock) Name() string { return "Stock" }

// TupleSize implements Generator. Stock tuples are 32-bit key + 32-bit payload.
func (s *Stock) TupleSize() int { return 8 }

// Batch implements Generator.
func (s *Stock) Batch(index, size int) *stream.Batch {
	rng := rngFor(s.Seed, index)
	symbols := s.Symbols
	if symbols <= 0 {
		symbols = 4096
	}
	n := tupleCount(size, 8)
	buf := make([]byte, n*8)
	for i := 0; i < n; i++ {
		key := uint32(600000 + rng.Intn(symbols)) // SSE-style numeric codes
		price := uint32(rng.Intn(1 << 22))        // wide dynamic range (price*100)
		putU32(buf[i*8:], key)
		putU32(buf[i*8+4:], price)
	}
	return stream.NewFramedBatch(index, buf, 8)
}

// Micro is the synthetic dataset for the workload-sensitivity studies: plain
// 32-bit values with independently tunable statistics.
type Micro struct {
	Seed int64
	// DynamicRange bounds symbol values to [0, DynamicRange). Default 500, the
	// paper's initial setting for the adaptation experiment.
	DynamicRange uint32
	// SymbolDuplication in [0,1] is the probability that a symbol repeats one
	// of the recently seen symbols (tdic32's sensitivity knob).
	SymbolDuplication float64
	// VocabDuplication in [0,1] is the probability that a whole multi-symbol
	// vocabulary (≥ 2 consecutive 32-bit words) repeats (lz4's knob).
	VocabDuplication float64
	// VocabLen is the vocabulary length in 32-bit symbols (default 4).
	VocabLen int
}

// NewMicro returns a Micro generator with the paper's default statistics.
func NewMicro(seed int64) *Micro {
	return &Micro{Seed: seed, DynamicRange: 500, SymbolDuplication: 0.3, VocabDuplication: 0.2, VocabLen: 4}
}

// Name implements Generator.
func (m *Micro) Name() string { return "Micro" }

// TupleSize implements Generator. Micro tuples are single 32-bit values.
func (m *Micro) TupleSize() int { return 4 }

// Batch implements Generator.
func (m *Micro) Batch(index, size int) *stream.Batch {
	rng := rngFor(m.Seed, index)
	rangeMax := m.DynamicRange
	if rangeMax < 2 {
		rangeMax = 2
	}
	vlen := m.VocabLen
	if vlen < 2 {
		vlen = 4
	}
	n := tupleCount(size, 4)
	buf := make([]byte, n*4)
	// Recent-symbol window for symbol duplication and a vocabulary pool.
	// Vocabularies alias the output: bytes behind word i are final.
	const window = 256
	recent := make([]uint32, 0, window)
	vocabPool := make([][]byte, 0, 32)
	i := 0
	for i < n {
		switch {
		case len(vocabPool) > 0 && i+vlen <= n && rng.Float64() < m.VocabDuplication:
			v := vocabPool[rng.Intn(len(vocabPool))]
			i += copy(buf[i*4:], v) / 4
		default:
			w := uint32(rng.Int63n(int64(rangeMax)))
			if len(recent) > 0 && rng.Float64() < m.SymbolDuplication {
				w = recent[rng.Intn(len(recent))]
			}
			putU32(buf[i*4:], w)
			if len(recent) < window {
				recent = append(recent, w)
			} else {
				recent[rng.Intn(window)] = w
			}
			i++
			// Occasionally register the trailing run as a vocabulary.
			if i >= vlen && rng.Float64() < 0.02 && len(vocabPool) < 32 {
				vocabPool = append(vocabPool, buf[(i-vlen)*4:i*4:i*4])
			}
		}
	}
	return stream.NewFramedBatch(index, buf, 4)
}

// appendPad2 appends v in decimal, zero-padded to two digits (fmt's %02d
// for v ≥ 0).
func appendPad2(b []byte, v int) []byte {
	if v < 10 {
		b = append(b, '0')
	}
	return strconv.AppendInt(b, int64(v), 10)
}

func putU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func putU64(b []byte, v uint64) {
	putU32(b, uint32(v))
	putU32(b[4:], uint32(v>>32))
}

// ByName constructs the named dataset with its paper-default configuration.
// Recognized names: Sensor, Rovio, Stock, Micro.
func ByName(name string, seed int64) (Generator, error) {
	switch name {
	case "Sensor":
		return NewSensor(seed), nil
	case "Rovio":
		return NewRovio(seed), nil
	case "Stock":
		return NewStock(seed), nil
	case "Micro":
		return NewMicro(seed), nil
	}
	return nil, fmt.Errorf("dataset: unknown dataset %q", name)
}

// All returns the four evaluation datasets in the paper's order.
func All(seed int64) []Generator {
	return []Generator{NewSensor(seed), NewRovio(seed), NewStock(seed), NewMicro(seed)}
}
