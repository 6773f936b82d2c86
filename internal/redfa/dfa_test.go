package redfa

import (
	"math/rand"
	"regexp"
	"strings"
	"testing"
)

func mustCompile(t *testing.T, pat string) *DFA {
	t.Helper()
	d, err := Compile(pat)
	if err != nil {
		t.Fatalf("Compile(%q): %v", pat, err)
	}
	return d
}

func TestLiteralMatch(t *testing.T) {
	d := mustCompile(t, "abc")
	cases := []struct {
		in   string
		want bool
	}{
		{"abc", true},
		{"xxabcxx", true},
		{"ab", false},
		{"", false},
		{"abd", false},
		{"aabc", true},
	}
	for _, c := range cases {
		if got := d.MatchBytes([]byte(c.in)); got != c.want {
			t.Errorf("MatchString(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestQuantifiers(t *testing.T) {
	cases := []struct {
		pat, in string
		want    bool
	}{
		{"ab*c", "ac", true},
		{"ab*c", "abbbbc", true},
		{"ab+c", "ac", false},
		{"ab+c", "abc", true},
		{"ab?c", "ac", true},
		{"ab?c", "abc", true},
		{"ab?c", "abbc", false},
		{"(ab)+", "abab", true},
		{"(ab)+x", "aabx", true}, // unanchored: "abx" is a substring
		{"(ab)+x", "aax", false},
	}
	for _, c := range cases {
		d := mustCompile(t, c.pat)
		if got := d.MatchBytes([]byte(c.in)); got != c.want {
			t.Errorf("%q.Match(%q) = %v, want %v", c.pat, c.in, got, c.want)
		}
	}
}

func TestAlternationAndClasses(t *testing.T) {
	cases := []struct {
		pat, in string
		want    bool
	}{
		{"cat|dog", "hotdog", true},
		{"cat|dog", "catalog", true},
		{"cat|dog", "bird", false},
		{"[0-9]+", "port 8080", true},
		{"[0-9]+", "no digits", false},
		{"[^a-z]", "abc", false},
		{"[^a-z]", "abcX", true},
		{"h[ae]llo", "hallo", true},
		{"h[ae]llo", "hillo", false},
		{`\d\d\d`, "x42y", false},
		{`\d\d\d`, "x420y", true},
		{`a\.b`, "a.b", true},
		{`a\.b`, "axb", false},
		{"a.b", "axb", true},
		{`\w+@\w+`, "mail me at bob@example", true},
		{`\s`, "nospace", false},
		{`\s`, "a b", true},
		{`\x41B`, "zABz", true},
	}
	for _, c := range cases {
		d := mustCompile(t, c.pat)
		if got := d.MatchBytes([]byte(c.in)); got != c.want {
			t.Errorf("%q.Match(%q) = %v, want %v", c.pat, c.in, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{"(", ")", "(ab", "a)", "[abc", "*a", "+", "?x", `\`, `\xZ1`, "[z-a]"}
	for _, pat := range bad {
		if _, err := Compile(pat); err == nil {
			t.Errorf("Compile(%q) succeeded, want error", pat)
		}
	}
}

func TestEmptyPatternMatchesEverything(t *testing.T) {
	d := mustCompile(t, "")
	if !d.MatchBytes([]byte("")) || !d.MatchBytes([]byte("anything")) {
		t.Error("empty pattern should match any input")
	}
}

// TestAgainstStdlibRegexp cross-validates on random inputs against Go's
// regexp package (which shares the subset semantics for these patterns).
func TestAgainstStdlibRegexp(t *testing.T) {
	pats := []string{
		"abc", "a+b", "(ab|cd)+", "x[0-9]*y", "a?b?c?d", "[a-c][d-f]",
		"foo|ba+r|baz", "(a|b)(c|d)", "z[^z]z",
	}
	rng := rand.New(rand.NewSource(5))
	alphabet := "abcdxyz0159"
	for _, pat := range pats {
		d := mustCompile(t, pat)
		std := regexp.MustCompile(pat)
		for i := 0; i < 400; i++ {
			n := rng.Intn(12)
			var sb strings.Builder
			for j := 0; j < n; j++ {
				sb.WriteByte(alphabet[rng.Intn(len(alphabet))])
			}
			in := sb.String()
			if got, want := d.MatchBytes([]byte(in)), std.MatchString(in); got != want {
				t.Fatalf("%q.Match(%q) = %v, stdlib says %v", pat, in, got, want)
			}
		}
	}
}

func TestMinimizationShrinks(t *testing.T) {
	// (a|b)(a|b) over a 2-letter language minimizes to few states.
	d := mustCompile(t, "(a|b)(a|b)")
	if d.NumStates() > 8 {
		t.Errorf("minimized DFA has %d states, expected <= 8", d.NumStates())
	}
}

func TestSet(t *testing.T) {
	s, err := CompileSet([]string{"attack", "eval\\(", "[0-9]+\\.exe"})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d", s.Len())
	}
	hits := s.Match([]byte("download 42.exe now"))
	if len(hits) != 1 || hits[0] != 2 {
		t.Errorf("Match = %v, want [2]", hits)
	}
	for _, in := range []string{"download 42.exe now", "eval(attack)", "clean", ""} {
		if got, want := s.MatchCount([]byte(in)), len(s.Match([]byte(in))); got != want {
			t.Errorf("MatchCount(%q) = %d, want %d", in, got, want)
		}
	}
	if s.TotalStates() <= 0 {
		t.Error("TotalStates <= 0")
	}
	if _, err := CompileSet([]string{"ok", "("}); err == nil {
		t.Error("CompileSet accepted a bad pattern")
	}
}

func BenchmarkDFAMatch(b *testing.B) {
	d, err := Compile(`(select|union|insert)[^;]*;`)
	if err != nil {
		b.Fatal(err)
	}
	data := []byte(strings.Repeat("GET /index.html?q=hello+world HTTP/1.1 ", 20))
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.MatchBytes(data)
	}
}

func TestBoundedRepetition(t *testing.T) {
	cases := []struct {
		pat, in string
		want    bool
	}{
		{"^a{3}$", "aaa", true},
		{"^a{3}$", "aa", false},
		{"^a{3}$", "aaaa", false},
		{"^a{2,4}$", "aa", true},
		{"^a{2,4}$", "aaaa", true},
		{"^a{2,4}$", "aaaaa", false},
		{"^a{2,}$", "aaaaaaa", true},
		{"^a{2,}$", "a", false},
		{"^(ab){2}$", "abab", true},
		{"^(ab){2}$", "ab", false},
		{"x{3}", "zzxxxzz", true}, // unanchored bounded
	}
	for _, c := range cases {
		d := mustCompile(t, c.pat)
		if got := d.MatchBytes([]byte(c.in)); got != c.want {
			t.Errorf("%q.Match(%q) = %v, want %v", c.pat, c.in, got, c.want)
		}
	}
}

func TestRepetitionErrors(t *testing.T) {
	for _, pat := range []string{"a{", "a{2", "a{2,1}", "a{999}", "a{x}"} {
		if _, err := Compile(pat); err == nil {
			t.Errorf("Compile(%q) succeeded", pat)
		}
	}
}

func TestAnchors(t *testing.T) {
	cases := []struct {
		pat, in string
		want    bool
	}{
		{"^GET", "GET /index", true},
		{"^GET", "forwarded GET /", false},
		{`\.exe$`, "run malware.exe", true},
		{`\.exe$`, "malware.exe downloaded", false},
		{"^exact$", "exact", true},
		{"^exact$", "exactly", false},
		{"^exact$", "inexact", false},
		{`price\$`, "the price$ tag", true}, // escaped $ is literal
	}
	for _, c := range cases {
		d := mustCompile(t, c.pat)
		if got := d.MatchBytes([]byte(c.in)); got != c.want {
			t.Errorf("%q.Match(%q) = %v, want %v", c.pat, c.in, got, c.want)
		}
	}
}

func TestAnchorsAgainstStdlib(t *testing.T) {
	pats := []string{"^ab+c", "xy+z$", "^a(b|c){2}d$"}
	rng := rand.New(rand.NewSource(17))
	alphabet := "abcdxyz"
	for _, pat := range pats {
		d := mustCompile(t, pat)
		std := regexp.MustCompile(pat)
		for i := 0; i < 300; i++ {
			n := rng.Intn(10)
			var sb strings.Builder
			for j := 0; j < n; j++ {
				sb.WriteByte(alphabet[rng.Intn(len(alphabet))])
			}
			in := sb.String()
			if got, want := d.MatchBytes([]byte(in)), std.MatchString(in); got != want {
				t.Fatalf("%q.Match(%q) = %v, stdlib says %v", pat, in, got, want)
			}
		}
	}
}
