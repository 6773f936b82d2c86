package ac

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestClassicExample(t *testing.T) {
	// The example from Aho & Corasick (1975): {he, she, his, hers}.
	m, err := NewMatcherStrings([]string{"he", "she", "his", "hers"})
	if err != nil {
		t.Fatal(err)
	}
	matches := m.Scan([]byte("ushers"))
	// Expected: "she" ends at 4, "he" ends at 4, "hers" ends at 6.
	want := map[[2]int]bool{{1, 4}: true, {0, 4}: true, {3, 6}: true}
	if len(matches) != len(want) {
		t.Fatalf("got %d matches %v, want 3", len(matches), matches)
	}
	for _, mt := range matches {
		if !want[[2]int{mt.Pattern, mt.End}] {
			t.Errorf("unexpected match %+v", mt)
		}
	}
}

func TestOverlappingAndRepeated(t *testing.T) {
	m, err := NewMatcherStrings([]string{"aa", "aaa"})
	if err != nil {
		t.Fatal(err)
	}
	matches := m.Scan([]byte("aaaa"))
	// "aa" at ends 2,3,4; "aaa" at ends 3,4.
	if len(matches) != 5 {
		t.Fatalf("got %d matches %v, want 5", len(matches), matches)
	}
}

func TestEmptyInputs(t *testing.T) {
	if _, err := NewMatcher(nil); err == nil {
		t.Error("accepted empty pattern set")
	}
	if _, err := NewMatcher([][]byte{{}}); err == nil {
		t.Error("accepted empty pattern")
	}
	m, _ := NewMatcherStrings([]string{"x"})
	if got := m.Scan(nil); len(got) != 0 {
		t.Errorf("Scan(nil) = %v", got)
	}
}

func TestPatternAccessors(t *testing.T) {
	m, _ := NewMatcherStrings([]string{"ab", "cd"})
	if m.NumStates() < 5 {
		t.Errorf("NumStates = %d, want >= 5", m.NumStates())
	}
}

// naiveScan is the brute-force oracle.
func naiveScan(patterns [][]byte, data []byte) []Match {
	var out []Match
	for i := range data {
		for pi, p := range patterns {
			if i+len(p) <= len(data) && bytes.Equal(data[i:i+len(p)], p) {
				out = append(out, Match{Pattern: pi, End: i + len(p)})
			}
		}
	}
	return out
}

func sameMatchSet(a, b []Match) bool {
	if len(a) != len(b) {
		return false
	}
	count := make(map[Match]int)
	for _, m := range a {
		count[m]++
	}
	for _, m := range b {
		count[m]--
		if count[m] < 0 {
			return false
		}
	}
	return true
}

func TestScanMatchesNaiveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func() bool {
		np := rng.Intn(6) + 1
		patterns := make([][]byte, np)
		for i := range patterns {
			l := rng.Intn(4) + 1
			p := make([]byte, l)
			for j := range p {
				p[j] = byte('a' + rng.Intn(3)) // tiny alphabet -> many overlaps
			}
			patterns[i] = p
		}
		data := make([]byte, rng.Intn(64))
		for j := range data {
			data[j] = byte('a' + rng.Intn(3))
		}
		m, err := NewMatcher(patterns)
		if err != nil {
			return false
		}
		return sameMatchSet(m.Scan(data), naiveScan(patterns, data))
	}
	for i := 0; i < 300; i++ {
		if !f() {
			t.Fatalf("iteration %d: Scan disagrees with naive oracle", i)
		}
	}
}

func TestScanStats(t *testing.T) {
	m, _ := NewMatcherStrings([]string{"abc"})
	_, matches, deep := m.ScanFrom(StartState, []byte("abcabc"))
	if matches != 2 {
		t.Errorf("matches = %d, want 2", matches)
	}
	if deep != 6 { // every byte advances within the pattern
		t.Errorf("deepStates = %d, want 6", deep)
	}
	_, _, deepMiss := m.ScanFrom(StartState, []byte("xxxxxx"))
	if deepMiss != 0 {
		t.Errorf("deepStates on miss = %d, want 0", deepMiss)
	}
}

func BenchmarkScanNoMatch(b *testing.B) {
	m, _ := NewMatcherStrings(snortLikePatterns(200))
	data := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog "), 32)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Scan(data)
	}
}

func BenchmarkScanFullMatch(b *testing.B) {
	pats := snortLikePatterns(200)
	m, _ := NewMatcherStrings(pats)
	data := bytes.Repeat([]byte(pats[0]+pats[1]+pats[2]), 60)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Scan(data)
	}
}

// snortLikePatterns fabricates a deterministic rule-content set.
func snortLikePatterns(n int) []string {
	rng := rand.New(rand.NewSource(99))
	words := []string{"attack", "shell", "admin", "select", "union", "passwd",
		"exec", "cmd", "script", "eval", "base64", "overflow"}
	out := make([]string, n)
	for i := range out {
		out[i] = words[rng.Intn(len(words))] + string(rune('a'+rng.Intn(26))) + words[rng.Intn(len(words))]
	}
	return out
}
