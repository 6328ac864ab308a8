package hp

type session struct{ buf []byte }

// Hot: Compress* prefix. Unguarded make and loop self-append are flagged.
func CompressBatch(src []byte) []byte {
	out := make([]byte, 0, len(src)) // want `make in hot path CompressBatch`
	for _, b := range src {
		out = append(out, b) // want `append growth in loop in hot path CompressBatch`
	}
	return out
}

// Hot: unexported compress* prefix counts too.
func compressShared(dst, src []byte) []byte {
	for i := range src {
		dst = append(dst, src[i]) // want `append growth in loop in hot path compressShared`
	}
	return dst
}

// The sanctioned idiom: make behind a cap guard allocates only until the
// scratch reaches its high-water mark, so it is not flagged; appends outside
// loops are not growth patterns.
func (s *session) CompressReuse(src []byte) []byte {
	if need := len(src) + 32; cap(s.buf) < need {
		s.buf = make([]byte, 0, need)
	}
	dst := s.buf[:0]
	dst = append(dst, byte(len(src)))
	for _, b := range src {
		if b == 0 {
			continue
		}
		other := []int{1}
		other = append(s.runsOf(b), 2) // not a self-append: different source
		_ = other
	}
	s.buf = dst
	return dst
}

func (s *session) runsOf(byte) []int { return nil }

// Suppressed with justification: allowed.
func CompressScan(src []byte) []int {
	var runs []int
	for i := range src {
		//lint:allow hotpathalloc run count is data-dependent; backing array converges to high-water mark
		runs = append(runs, i)
	}
	return runs
}

// Decode paths return fresh buffers by contract: never flagged.
func DecompressBatch(src []byte) []byte {
	out := make([]byte, 0, len(src))
	for _, b := range src {
		out = append(out, b)
	}
	return out
}

// Shadowed builtins do not count.
func CompressWithShadow(src []byte) int {
	make := func(n int) int { return n }
	append := func(a, b int) int { return a + b }
	total := 0
	for _, b := range src {
		total = append(total, int(b))
	}
	return make(total)
}

// Hot: the serve frame path carries the same per-frame contract. ReadFrame*
// prefixes are covered.
func ReadFrameInto(buf []byte, n int) []byte {
	body := make([]byte, n) // want `make in hot path ReadFrameInto`
	_ = body
	if cap(buf) < n {
		buf = make([]byte, 0, n) // guarded: not flagged
	}
	return buf[:n]
}

// Hot: WriteFrame prefix; vector lists must come from pooled scratch.
func WriteFrameVec(payload []byte) [][]byte {
	vecs := make([][]byte, 0, 2) // want `make in hot path WriteFrameVec`
	return append(vecs, payload)
}

// Hot: appendSegment prefix; per-segment growth must be pre-sized.
func appendSegmentLoop(segs [][]byte) []byte {
	var dst []byte
	for _, s := range segs {
		dst = append(dst, s...) // want `append growth in loop in hot path appendSegmentLoop`
	}
	return dst
}

// Hot: decodeResultInto — but recycling a destination buffer through a
// capped self-slice append is not the self-append growth pattern.
func decodeResultInto(dst, p []byte) []byte {
	dst = append(dst[:0], p...)
	for range p {
		dst = append(dst[:0], p...) // not a self-append: LHS and arg differ
	}
	return dst
}

// Plain decodeResult is NOT a hot path: it returns fresh buffers by contract.
func decodeResult(p []byte) []byte {
	out := make([]byte, len(p))
	copy(out, p)
	return out
}
