package compress

import (
	"math/rand"
	"testing"
)

// heapArenaCap bounds the construction arena: 256 leaves + 255 internal
// nodes.
const heapArenaCap = 511

// heapCodeLengths is huff8's former code-length build, kept as the oracle
// of huffTree.codeLengths: a min-heap of arena indices ordered by (weight,
// arena index), specialised from container/heap's exact Init/Push/Pop, and a
// depth-first depth assignment.
func heapCodeLengths(freq *[256]int) [256]uint8 {
	var lengths [256]uint8
	var arenaBuf [heapArenaCap]huffNode
	var idxBuf [256]int
	arena := arenaBuf[:0]
	idx := idxBuf[:0]
	for s, f := range freq {
		if f > 0 {
			arena = append(arena, huffNode{weight: f, symbol: s, left: -1, right: -1})
			idx = append(idx, len(arena)-1)
		}
	}
	switch len(idx) {
	case 0:
		return lengths
	case 1:
		lengths[arena[idx[0]].symbol] = 1
		return lengths
	}
	heapInit(arena, idx)
	for len(idx) > 1 {
		var a, b int
		a, idx = heapPop(arena, idx)
		b, idx = heapPop(arena, idx)
		arena = append(arena, huffNode{
			weight: arena[a].weight + arena[b].weight,
			symbol: -1, left: a, right: b,
		})
		idx = heapPush(arena, idx, len(arena)-1)
	}
	root := idx[0]
	// Depth-first assignment of depths. The stack never exceeds
	// #internal nodes + 1 entries.
	type frame struct{ idx, depth int }
	var stackBuf [264]frame
	stack := stackBuf[:0]
	stack = append(stack, frame{root, 0})
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := arena[f.idx]
		if n.symbol >= 0 {
			d := f.depth
			if d == 0 {
				d = 1
			}
			lengths[n.symbol] = uint8(d)
			continue
		}
		stack = append(stack, frame{n.left, f.depth + 1}, frame{n.right, f.depth + 1})
	}
	// Length-limit by demoting over-deep leaves; the canonical assignment
	// below only needs Kraft-satisfying lengths.
	limitLengths(&lengths)
	return lengths
}

// huffNode is one Huffman tree node in the construction arena.
type huffNode struct {
	weight      int
	symbol      int // -1 for internal nodes
	left, right int // arena indices
}

// The heap helpers below are container/heap's exact Init/Push/Pop
// specialised to a min-heap of arena indices ordered by (weight, arena
// index).

func heapLess(arena []huffNode, idx []int, i, j int) bool {
	a, b := arena[idx[i]], arena[idx[j]]
	if a.weight != b.weight {
		return a.weight < b.weight
	}
	return idx[i] < idx[j] // deterministic tie-break
}

func heapInit(arena []huffNode, idx []int) {
	n := len(idx)
	for i := n/2 - 1; i >= 0; i-- {
		heapDown(arena, idx, i, n)
	}
}

func heapUp(arena []huffNode, idx []int, j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !heapLess(arena, idx, j, i) {
			break
		}
		idx[i], idx[j] = idx[j], idx[i]
		j = i
	}
}

func heapDown(arena []huffNode, idx []int, i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && heapLess(arena, idx, j2, j1) {
			j = j2 // right child
		}
		if !heapLess(arena, idx, j, i) {
			break
		}
		idx[i], idx[j] = idx[j], idx[i]
		i = j
	}
}

func heapPush(arena []huffNode, idx []int, v int) []int {
	idx = append(idx, v)
	heapUp(arena, idx, len(idx)-1)
	return idx
}

func heapPop(arena []huffNode, idx []int) (int, []int) {
	n := len(idx) - 1
	idx[0], idx[n] = idx[n], idx[0]
	heapDown(arena, idx, 0, n)
	return idx[n], idx[:n]
}

// hsym pairs a symbol with its code length for canonical ordering.
type hsym struct {
	s int
	l uint8
}

// referenceCanonicalCodes is huff8's former canonical assignment, kept as
// the oracle of canonicalCodes and used by the reference decoder on any
// header: sort the used symbols by (length, symbol), then count up,
// shifting left at each new length.
func referenceCanonicalCodes(lengths *[256]uint8) [256]uint32 {
	var order [256]hsym
	n := 0
	for s, l := range lengths {
		if l > 0 {
			order[n] = hsym{s, l}
			n++
		}
	}
	for i := 1; i < n; i++ {
		e := order[i]
		j := i - 1
		for j >= 0 && (order[j].l > e.l || (order[j].l == e.l && order[j].s > e.s)) {
			order[j+1] = order[j]
			j--
		}
		order[j+1] = e
	}
	var codes [256]uint32
	code := uint32(0)
	prevLen := uint8(0)
	for i := 0; i < n; i++ {
		sy := order[i]
		code <<= (sy.l - prevLen)
		codes[sy.s] = code
		code++
		prevLen = sy.l
	}
	return codes
}

// randomHistogram draws a histogram over a random alphabet size with
// weights from flat to steeply skewed, so both shallow trees and trees
// deeper than huff8MaxCodeLen (and so length-limited) occur, as do ties.
func randomHistogram(rng *rand.Rand) [256]int {
	var freq [256]int
	symbols := 1 + rng.Intn(256)
	switch rng.Intn(4) {
	case 0: // flat with ties
		for i := 0; i < symbols; i++ {
			freq[rng.Intn(256)] = 1 + rng.Intn(4)
		}
	case 1: // geometric: deep trees
		w := 1 << 40
		for i := 0; i < symbols && w > 0; i++ {
			freq[rng.Intn(256)] += w
			w = w * (1 + rng.Intn(3)) / 4
		}
	case 2: // Fibonacci-like weights: the deepest tree for its size
		a, b := 1, 1
		for i := 0; i < symbols && i < 60; i++ {
			freq[i] = a
			a, b = b, a+b
		}
	default: // a sampled batch
		n := 1 + rng.Intn(1<<14)
		for i := 0; i < n; i++ {
			freq[byte(rng.ExpFloat64()*float64(1+rng.Intn(40)))]++
		}
	}
	return freq
}

// TestHuff8TreeMatchesHeapBuild holds the two-queue build and the counted
// canonical assignment to the heap build and the sorted assignment they
// replaced, on random histograms and on the corner alphabets.
func TestHuff8TreeMatchesHeapBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var tree huffTree
	check := func(freq *[256]int) {
		t.Helper()
		want := heapCodeLengths(freq)
		got := tree.codeLengths(freq)
		if got != want {
			t.Fatalf("histogram %v: lengths %v, heap build %v", *freq, got, want)
		}
		if c, r := canonicalCodes(&got), referenceCanonicalCodes(&got); c != r {
			t.Fatalf("lengths %v: codes %v, reference %v", got, c, r)
		}
	}
	var corner [4][256]int
	corner[1][200] = 7
	corner[2][0], corner[2][255] = 3, 3
	for s := range corner[3] {
		corner[3][s] = 1
	}
	for i := range corner {
		check(&corner[i])
	}
	for i := 0; i < 3000; i++ {
		freq := randomHistogram(rng)
		check(&freq)
	}
}
