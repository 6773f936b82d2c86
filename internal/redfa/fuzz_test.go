package redfa

import "testing"

// FuzzCompile hardens the regex pipeline: arbitrary pattern text must
// either fail cleanly or produce a DFA that scans arbitrary input without
// panicking.
func FuzzCompile(f *testing.F) {
	for _, seed := range []string{
		"abc", "(a|b)*c", "[0-9]{2,4}$", "^x\\d+", "a{3}", "[^a-z]+",
		"(", "a{", "\\x4", "((((", "a|b|c|d|e",
	} {
		f.Add(seed, "probe input 123")
	}
	f.Fuzz(func(t *testing.T, pattern, input string) {
		if len(pattern) > 64 || len(input) > 256 {
			return // bound DFA construction work
		}
		d, err := Compile(pattern)
		if err != nil {
			return
		}
		_ = d.MatchBytes([]byte(input))
		if d.NumStates() <= 0 {
			t.Fatal("compiled DFA has no states")
		}
	})
}
