// Package ac implements the Aho–Corasick multi-pattern string matching
// algorithm used by the DPI/IDS network functions (the paper's Snap-derived
// string matcher). The automaton is a fully materialized DFA (failure
// transitions pre-resolved — the form GPU implementations use because every
// input byte costs exactly one table access), stored compactly:
//
//   - the alphabet is the set of byte equivalence classes — one class per
//     byte value that occurs in a pattern plus one for all the bytes that do
//     not — behind a 256-byte class map, so a row is as wide as the patterns'
//     alphabet, not 256;
//   - rows are padded to a power of two and the table stores the next state
//     already multiplied by the row width: one step is tab[s+class[c]];
//   - states are numbered shallow-first (the states random traffic lives in
//     share cache lines) with every output-bearing state after every silent
//     one, so "does this state report a match" is s >= firstMatch.
//
// An entry is a uint64 whose bit 32 is set when its next state is not the
// root. A scan sums the entries it loads over windows short enough that the
// low words cannot carry, so each sum's high word counts the steps off the
// root (the deep-state count): one load and one add per byte.
//
// Every scan entry point walks this one table. ScanStatsBatch and
// ScanFromBatch walk it four payloads at a time: the four table loads of a
// step are independent, so they overlap where a single payload's walk waits
// on each load in turn. They report per-payload matches and the batch's
// deep-state count.
package ac

import (
	"fmt"
	"math/bits"
)

// Lanes is how many payloads the batch kernels advance per step. A caller
// that has to hold payloads back to form a group gains nothing from holding
// more than this many.
const Lanes = 4

// maxEntries caps the table so that one step of Lanes payloads cannot
// carry out of a sum's low word (windowFor is at least 1).
const maxEntries = 1 << 30

// windowFor is the most steps over Lanes payloads whose entries' low words,
// each at most maxState, sum below 1<<32 (and whose count does too).
func windowFor(maxState uint32) int {
	return int(min((1<<32-1)/(Lanes*uint64(max(maxState, 1))), 1<<20))
}

// Matcher is an immutable Aho–Corasick automaton over byte patterns.
type Matcher struct {
	// class maps a byte to its column.
	class [256]uint8
	// The low word of tab[s+class[c]] is the state after reading c in state
	// s, with failure transitions pre-applied; bit 32 is set when that state
	// is not the root. States are multiples of the row width 1<<shift; the
	// root is 0.
	tab   []uint64
	shift uint
	// window is the scans' window in bytes (windowFor).
	window int
	// firstMatch is the smallest state at which a pattern ends (directly or
	// through a suffix link); every state at or above it has output.
	firstMatch uint32
	// Output state number i (state firstMatch + i<<shift) reports patterns
	// outs[outStart[i]:outStart[i+1]].
	outStart []int32
	outs     []int32
}

// Match is one pattern occurrence.
type Match struct {
	Pattern int // index into the pattern set
	End     int // byte offset one past the last matched byte
}

// NewMatcher builds the automaton for the given patterns. Empty patterns
// and an empty pattern set are rejected.
func NewMatcher(patterns [][]byte) (*Matcher, error) {
	if len(patterns) == 0 {
		return nil, fmt.Errorf("ac: empty pattern set")
	}
	m := &Matcher{}

	// Byte classes: 0 for every byte no pattern uses (when there is one),
	// then one class per used byte.
	var used [256]bool
	for i, p := range patterns {
		if len(p) == 0 {
			return nil, fmt.Errorf("ac: pattern %d is empty", i)
		}
		for _, c := range p {
			used[c] = true
		}
	}
	classes := 0
	for _, u := range used {
		if !u {
			classes = 1
			break
		}
	}
	for c, u := range used {
		if u {
			m.class[c] = uint8(classes)
			classes++
		}
	}
	m.shift = uint(bits.Len(uint(classes - 1)))
	width := 1 << m.shift

	// Goto trie over classes, one row per node (0 = absent; node 0 is the
	// root), and the node each pattern ends at.
	maxNodes := 1
	for _, p := range patterns {
		maxNodes += len(p)
	}
	trie := make([]int32, width, maxNodes<<m.shift)
	ends := make([]int32, len(patterns))
	for pi, p := range patterns {
		s := int32(0)
		for _, c := range p {
			at := int(s)<<m.shift + int(m.class[c])
			if trie[at] == 0 {
				trie[at] = int32(len(trie) >> m.shift)
				trie = append(trie, make([]int32, width)...)
			}
			s = trie[at]
		}
		ends[pi] = s
	}
	n := len(trie) >> m.shift
	if uint64(n)<<m.shift > maxEntries {
		return nil, fmt.Errorf("ac: automaton too large (%d states × %d classes)", n, width)
	}
	own := make([][]int32, n)
	for pi, s := range ends {
		own[s] = append(own[s], int32(pi))
	}

	// Breadth-first: resolve failure transitions in place (a node's failure
	// state is shallower, so its row is already complete) and count each
	// node's outputs, its own plus its failure state's.
	fail := make([]int32, n)
	nout := make([]int32, n)
	order := make([]int32, 1, n)
	for qi := 0; qi < len(order); qi++ {
		u := order[qi]
		row := trie[int(u)<<m.shift:][:width]
		frow := trie[int(fail[u])<<m.shift:][:width]
		nout[u] = int32(len(own[u])) + nout[fail[u]]
		for k, v := range row {
			switch {
			case v != 0:
				if u != 0 {
					fail[v] = frow[k]
				}
				order = append(order, v)
			case u != 0:
				row[k] = frow[k]
			}
		}
	}

	// Renumber: silent states first, then output states, both shallow-first.
	id := make([]uint32, n)
	silent := 0
	for _, u := range order {
		if nout[u] == 0 {
			id[u] = uint32(silent) << m.shift
			silent++
		}
	}
	m.firstMatch = uint32(silent) << m.shift
	m.outStart = make([]int32, 1, n-silent+1)
	for _, u := range order {
		if nout[u] == 0 {
			continue
		}
		id[u] = m.firstMatch + uint32(len(m.outStart)-1)<<m.shift
		// Own patterns first, then the suffix link's, as Scan reports them.
		m.outs = append(m.outs, own[u]...)
		if f := fail[u]; nout[f] != 0 {
			fi := (id[f] - m.firstMatch) >> m.shift
			m.outs = append(m.outs, m.outs[m.outStart[fi]:m.outStart[fi+1]]...)
		}
		m.outStart = append(m.outStart, int32(len(m.outs)))
	}

	m.tab = make([]uint64, len(trie))
	for u, nu := range id {
		row := trie[u<<m.shift:][:width]
		out := m.tab[nu:][:width]
		for k, v := range row {
			out[k] = uint64(id[v]) | uint64(min(id[v], 1))<<32 // only the root's id is 0
		}
	}
	m.window = windowFor(uint32(len(m.tab) - width))
	return m, nil
}

// NewMatcherStrings builds a matcher from string patterns.
func NewMatcherStrings(patterns []string) (*Matcher, error) {
	bs := make([][]byte, len(patterns))
	for i, p := range patterns {
		bs[i] = []byte(p)
	}
	return NewMatcher(bs)
}

// NumStates returns the number of automaton states (the dense DFA table's
// memory footprint drives the simulator's DPI cache model).
func (m *Matcher) NumStates() int { return len(m.tab) >> m.shift }

// outputs returns the patterns ending at s, which must be >= firstMatch.
func (m *Matcher) outputs(s uint32) []int32 {
	i := (s - m.firstMatch) >> m.shift
	return m.outs[m.outStart[i]:m.outStart[i+1]]
}

// Scan runs the automaton over data and returns all matches in order of
// their end offset.
func (m *Matcher) Scan(data []byte) []Match {
	var matches []Match
	s := uint32(0)
	for i, c := range data {
		s = uint32(m.tab[s+uint32(m.class[c])])
		if s >= m.firstMatch {
			for _, p := range m.outputs(s) {
				matches = append(matches, Match{Pattern: int(p), End: i + 1})
			}
		}
	}
	return matches
}

// State is a resumable automaton position for stream scanning. Its value
// is meaningful only to the Matcher that returned it.
type State uint32

// StartState is the automaton root.
const StartState State = 0

// ScanFrom resumes the automaton at a saved state and scans data,
// returning the new state plus the match and deep-state counts (the latter
// a proxy for DFA-table memory pressure). Stateful stream inspection (IDS
// over reassembled TCP flows) uses it to catch patterns spanning packets.
func (m *Matcher) ScanFrom(state State, data []byte) (State, int, int) {
	tab, class, first := m.tab, &m.class, m.firstMatch
	e := uint64(state)
	matches, deep := 0, 0
	for len(data) > 0 {
		win := data[:min(len(data), m.window)]
		data = data[len(win):]
		var sum uint64
		for _, c := range win {
			e = tab[uint32(e)+uint32(class[c])]
			sum += e
			if uint32(e) >= first {
				matches += len(m.outputs(uint32(e)))
			}
		}
		deep += int(sum >> 32)
	}
	return State(e), matches, deep
}

// ScanStatsBatch is ScanFrom from the start state over many payloads at
// once: matches[i], which must be at least as long as payloads, receives
// payload i's match count, and the result is the batch's deep-state count.
func (m *Matcher) ScanStatsBatch(payloads [][]byte, matches []int) (deep int) {
	i := 0
	for ; i+Lanes <= len(payloads); i += Lanes {
		var st [Lanes]State
		deep += m.scan4(&st, (*[Lanes][]byte)(payloads[i:]), (*[Lanes]int)(matches[i:]))
	}
	for ; i < len(payloads); i++ {
		_, mt, d := m.ScanFrom(StartState, payloads[i])
		matches[i], deep = mt, deep+d
	}
	return deep
}

// ScanFromBatch is ScanFrom over many independent streams at once: payload
// i resumes at states[i], which is replaced by the state it ends in, and
// its match count goes to matches[i]; the result is the batch's deep-state
// count. No two payloads of one call may belong to the same stream.
func (m *Matcher) ScanFromBatch(states []State, payloads [][]byte, matches []int) (deep int) {
	i := 0
	for ; i+Lanes <= len(payloads); i += Lanes {
		deep += m.scan4((*[Lanes]State)(states[i:]), (*[Lanes][]byte)(payloads[i:]), (*[Lanes]int)(matches[i:]))
	}
	for ; i < len(payloads); i++ {
		s, mt, d := m.ScanFrom(states[i], payloads[i])
		states[i], matches[i], deep = s, mt, deep+d
	}
	return deep
}

// scan4 advances four payloads in lockstep over their common length, a
// window at a time, then finishes each one's remainder on its own.
func (m *Matcher) scan4(st *[Lanes]State, p *[Lanes][]byte, matches *[Lanes]int) (deep int) {
	n := min(len(p[0]), len(p[1]), len(p[2]), len(p[3]))
	*matches = [Lanes]int{}
	for lo := 0; lo < n; lo += m.window {
		hi := min(lo+m.window, n)
		deep += m.walk4(st, &[Lanes][]byte{p[0][lo:hi], p[1][lo:hi], p[2][lo:hi], p[3][lo:hi]}, matches)
	}
	for l, pl := range p {
		if len(pl) > n {
			s, mt, d := m.ScanFrom(st[l], pl[n:])
			st[l] = s
			matches[l] += mt
			deep += d
		}
	}
	return deep
}

// walk4 walks one window of four equal-length payloads. One sum serves the
// lanes and the match counts stay in memory, so the registers go to the
// walk; written out in scan4's window loop, it spills and runs ~10 % slower.
func (m *Matcher) walk4(st *[Lanes]State, p *[Lanes][]byte, matches *[Lanes]int) int {
	tab, class, first := m.tab, &m.class, m.firstMatch
	e0, e1, e2, e3 := uint64(st[0]), uint64(st[1]), uint64(st[2]), uint64(st[3])
	p0 := p[0]
	p1, p2, p3 := p[1][:len(p0)], p[2][:len(p0)], p[3][:len(p0)]
	var sum uint64
	for i := range p0 {
		e0 = tab[uint32(e0)+uint32(class[p0[i]])]
		e1 = tab[uint32(e1)+uint32(class[p1[i]])]
		e2 = tab[uint32(e2)+uint32(class[p2[i]])]
		e3 = tab[uint32(e3)+uint32(class[p3[i]])]
		sum += e0 + e1 + e2 + e3
		if uint32(e0) >= first {
			matches[0] += len(m.outputs(uint32(e0)))
		}
		if uint32(e1) >= first {
			matches[1] += len(m.outputs(uint32(e1)))
		}
		if uint32(e2) >= first {
			matches[2] += len(m.outputs(uint32(e2)))
		}
		if uint32(e3) >= first {
			matches[3] += len(m.outputs(uint32(e3)))
		}
	}
	*st = [Lanes]State{State(e0), State(e1), State(e2), State(e3)}
	return int(sum >> 32)
}
