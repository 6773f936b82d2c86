package redfa

import (
	"fmt"
	"sort"
	"strings"
)

// nfa is a Thompson construction: states with epsilon edges and at most one
// byte-class edge each.
type nfa struct {
	// eps[s] lists epsilon successors; edge[s] is the class transition.
	eps   [][]int32
	edge  []*byteClass
	dest  []int32
	start int32
	final int32
}

func (n *nfa) newState() int32 {
	n.eps = append(n.eps, nil)
	n.edge = append(n.edge, nil)
	n.dest = append(n.dest, -1)
	return int32(len(n.eps) - 1)
}

func (n *nfa) addEps(from, to int32) { n.eps[from] = append(n.eps[from], to) }

func (n *nfa) addEdge(from int32, c *byteClass, to int32) {
	n.edge[from] = c
	n.dest[from] = to
}

// build compiles the syntax tree into an NFA fragment (start, final).
func (n *nfa) build(t *node) (int32, int32) {
	switch t.op {
	case opEmpty:
		s := n.newState()
		f := n.newState()
		n.addEps(s, f)
		return s, f
	case opClass:
		s := n.newState()
		f := n.newState()
		n.addEdge(s, t.class, f)
		return s, f
	case opConcat:
		s, f := n.build(t.children[0])
		for _, c := range t.children[1:] {
			cs, cf := n.build(c)
			n.addEps(f, cs)
			f = cf
		}
		return s, f
	case opAlternate:
		s := n.newState()
		f := n.newState()
		for _, c := range t.children {
			cs, cf := n.build(c)
			n.addEps(s, cs)
			n.addEps(cf, f)
		}
		return s, f
	case opStar:
		s := n.newState()
		f := n.newState()
		cs, cf := n.build(t.children[0])
		n.addEps(s, cs)
		n.addEps(s, f)
		n.addEps(cf, cs)
		n.addEps(cf, f)
		return s, f
	case opPlus:
		cs, cf := n.build(t.children[0])
		f := n.newState()
		n.addEps(cf, cs)
		n.addEps(cf, f)
		return cs, f
	case opOptional:
		s := n.newState()
		f := n.newState()
		cs, cf := n.build(t.children[0])
		n.addEps(s, cs)
		n.addEps(s, f)
		n.addEps(cf, f)
		return s, f
	default:
		panic("redfa: unknown op")
	}
}

// DFA is a compiled deterministic automaton in dense table form. Matching
// consumes exactly one table access per input byte, the property that makes
// DFAs the GPU-friendly representation.
type DFA struct {
	// trans[s*256+c] is the next state; dead states loop to themselves.
	trans []int32
	// accept[s] reports whether s is accepting.
	accept []bool
	// anchoredEnd requires the match to end exactly at the input's end
	// ('$'); without it the scan returns on the first accepting state.
	anchoredEnd bool
}

// Compile builds a minimized DFA for the pattern. By default matching is
// *unanchored*: it reports whether any substring of the input matches (the
// DPI semantic). A leading '^' anchors the match to the start of the
// input, a trailing unescaped '$' to its end.
func Compile(pattern string) (*DFA, error) {
	body := pattern
	anchoredStart := strings.HasPrefix(body, "^")
	if anchoredStart {
		body = body[1:]
	}
	anchoredEnd := false
	if strings.HasSuffix(body, "$") && !strings.HasSuffix(body, `\$`) {
		anchoredEnd = true
		body = body[:len(body)-1]
	}

	t, err := parse(body)
	if err != nil {
		return nil, err
	}
	if !anchoredStart {
		// Wrap with a leading .* so the DFA scans unanchored; "match
		// anywhere before the end" is handled by sticky accept in
		// MatchBytes rather than a trailing .*, keeping the automaton
		// small.
		all := &byteClass{}
		all.negate()
		dotStar := &node{op: opStar, children: []*node{{op: opClass, class: all}}}
		t = &node{op: opConcat, children: []*node{dotStar, t}}
	}

	var n nfa
	s, f := n.build(t)
	n.start, n.final = s, f

	dfa := subsetConstruct(&n)
	dfa = minimize(dfa)
	dfa.anchoredEnd = anchoredEnd
	return dfa, nil
}

// closure expands set (sorted state ids) with epsilon closure.
func closure(n *nfa, set []int32) []int32 {
	seen := make(map[int32]bool, len(set))
	stack := append([]int32(nil), set...)
	for _, s := range set {
		seen[s] = true
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range n.eps[s] {
			if !seen[t] {
				seen[t] = true
				stack = append(stack, t)
			}
		}
	}
	out := make([]int32, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func keyOf(set []int32) string {
	b := make([]byte, 0, len(set)*4)
	for _, s := range set {
		b = append(b, byte(s), byte(s>>8), byte(s>>16), byte(s>>24))
	}
	return string(b)
}

func subsetConstruct(n *nfa) *DFA {
	start := closure(n, []int32{n.start})
	ids := map[string]int32{keyOf(start): 0}
	sets := [][]int32{start}
	d := &DFA{}

	for si := 0; si < len(sets); si++ {
		set := sets[si]
		row := make([]int32, 256)
		// Group target sets per byte.
		for c := 0; c < 256; c++ {
			var next []int32
			for _, s := range set {
				if n.edge[s] != nil && n.edge[s].has(byte(c)) {
					next = append(next, n.dest[s])
				}
			}
			if len(next) == 0 {
				row[c] = -1
				continue
			}
			sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
			next = closure(n, dedup(next))
			k := keyOf(next)
			id, ok := ids[k]
			if !ok {
				id = int32(len(sets))
				ids[k] = id
				sets = append(sets, next)
			}
			row[c] = id
		}
		d.trans = append(d.trans, row...)
		acc := false
		for _, s := range set {
			if s == n.final {
				acc = true
				break
			}
		}
		d.accept = append(d.accept, acc)
	}

	// Replace -1 with an explicit dead state.
	dead := int32(len(d.accept))
	needDead := false
	for i, t := range d.trans {
		if t == -1 {
			d.trans[i] = dead
			needDead = true
		}
	}
	if needDead {
		row := make([]int32, 256)
		for c := range row {
			row[c] = dead
		}
		d.trans = append(d.trans, row...)
		d.accept = append(d.accept, false)
	}
	return d
}

func dedup(s []int32) []int32 {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// minimize applies Moore-style partition refinement.
func minimize(d *DFA) *DFA {
	n := len(d.accept)
	part := make([]int32, n)
	for i := range part {
		if d.accept[i] {
			part[i] = 1
		}
	}
	numParts := int32(2)
	for {
		sigs := make([]string, n)
		for s := 0; s < n; s++ {
			b := make([]byte, 0, 257*4)
			b = append(b, byte(part[s]), byte(part[s]>>8))
			for c := 0; c < 256; c++ {
				t := part[d.trans[s*256+c]]
				b = append(b, byte(t), byte(t>>8))
			}
			sigs[s] = string(b)
		}
		ids := make(map[string]int32)
		newPart := make([]int32, n)
		for s := 0; s < n; s++ {
			id, ok := ids[sigs[s]]
			if !ok {
				id = int32(len(ids))
				ids[sigs[s]] = id
			}
			newPart[s] = id
		}
		if int32(len(ids)) == numParts {
			part = newPart
			break
		}
		numParts = int32(len(ids))
		part = newPart
	}

	// The minimized start state must be state 0: remap partition ids so
	// the partition containing old state 0 becomes 0.
	remap := make([]int32, numParts)
	for i := range remap {
		remap[i] = -1
	}
	var order []int32
	assign := func(p int32) int32 {
		if remap[p] == -1 {
			remap[p] = int32(len(order))
			order = append(order, p)
		}
		return remap[p]
	}
	assign(part[0])
	for s := 0; s < n; s++ {
		assign(part[s])
	}

	m := &DFA{
		trans:  make([]int32, len(order)*256),
		accept: make([]bool, len(order)),
	}
	for s := 0; s < n; s++ {
		ns := remap[part[s]]
		m.accept[ns] = d.accept[s]
		for c := 0; c < 256; c++ {
			m.trans[int(ns)*256+c] = remap[part[d.trans[s*256+c]]]
		}
	}
	return m
}

// NumStates returns the number of DFA states (memory footprint input to the
// platform cost model).
func (d *DFA) NumStates() int { return len(d.accept) }

// MatchBytes reports whether the pattern occurs in data (anywhere by
// default; at the input's end when the pattern carries a '$' anchor).
func (d *DFA) MatchBytes(data []byte) bool {
	s := int32(0)
	if d.anchoredEnd {
		for _, c := range data {
			s = d.trans[int(s)*256+int(c)]
		}
		return d.accept[s]
	}
	if d.accept[0] {
		return true
	}
	for _, c := range data {
		s = d.trans[int(s)*256+int(c)]
		if d.accept[s] {
			return true
		}
	}
	return false
}

// Set is a bank of DFAs scanned together, as a DPI rule set would be.
type Set struct {
	dfas []*DFA
}

// CompileSet compiles all patterns, failing on the first bad one.
func CompileSet(patterns []string) (*Set, error) {
	set := &Set{dfas: make([]*DFA, len(patterns))}
	for i, p := range patterns {
		d, err := Compile(p)
		if err != nil {
			return nil, fmt.Errorf("pattern %d %q: %w", i, p, err)
		}
		set.dfas[i] = d
	}
	return set, nil
}

// Match returns the indices of patterns occurring in data.
func (s *Set) Match(data []byte) []int {
	var out []int
	for i, d := range s.dfas {
		if d.MatchBytes(data) {
			out = append(out, i)
		}
	}
	return out
}

// MatchCount returns how many patterns occur in data — len(Match(data))
// without building the index list.
func (s *Set) MatchCount(data []byte) int {
	n := 0
	for _, d := range s.dfas {
		if d.MatchBytes(data) {
			n++
		}
	}
	return n
}

// Len returns the number of patterns in the set.
func (s *Set) Len() int { return len(s.dfas) }

// TotalStates sums the state counts of all member DFAs.
func (s *Set) TotalStates() int {
	n := 0
	for _, d := range s.dfas {
		n += d.NumStates()
	}
	return n
}
