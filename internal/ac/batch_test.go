package ac

import (
	"bytes"
	"math/rand"
	"testing"
)

// naiveStats is the per-payload reference for the scan statistics, written
// without an automaton: matches counts every (pattern, end offset)
// occurrence, and a position is deep when some non-empty pattern prefix ends
// there — the automaton is off its root exactly then.
func naiveStats(patterns [][]byte, data []byte) (matches, deep int) {
	for end := 1; end <= len(data); end++ {
		off := false
		for _, p := range patterns {
			for l := 1; l <= len(p) && l <= end; l++ {
				if bytes.Equal(data[end-l:end], p[:l]) {
					off = true
					if l == len(p) {
						matches++
					}
				}
			}
		}
		if off {
			deep++
		}
	}
	return matches, deep
}

// checkBatch compares both batch entry points with the reference: payload i
// is scanned whole by ScanStatsBatch, and by ScanFromBatch resumed after its
// first cuts[i] bytes.
func checkBatch(t *testing.T, patterns, payloads [][]byte, cuts []int) {
	t.Helper()
	m, err := NewMatcher(patterns)
	if err != nil {
		t.Fatal(err)
	}
	n := len(payloads)
	matches, deep := make([]int, n), make([]int, n)
	m.ScanStatsBatch(payloads, matches, deep)

	states, tails := make([]State, n), make([][]byte, n)
	headM, headD := make([]int, n), make([]int, n)
	for i, pl := range payloads {
		states[i], headM[i], headD[i] = m.ScanFrom(StartState, pl[:cuts[i]])
		tails[i] = pl[cuts[i]:]
	}
	tailM, tailD := make([]int, n), make([]int, n)
	m.ScanFromBatch(states, tails, tailM, tailD)

	for i, pl := range payloads {
		wantM, wantD := naiveStats(patterns, pl)
		if matches[i] != wantM || deep[i] != wantD {
			t.Errorf("payload %d/%d (%d B): ScanStatsBatch = (%d, %d), reference (%d, %d)",
				i, n, len(pl), matches[i], deep[i], wantM, wantD)
		}
		if gotM, gotD := headM[i]+tailM[i], headD[i]+tailD[i]; gotM != wantM || gotD != wantD {
			t.Errorf("payload %d/%d (%d B, resumed at %d): ScanFromBatch = (%d, %d), reference (%d, %d)",
				i, n, len(pl), cuts[i], gotM, gotD, wantM, wantD)
		}
		if end, _, _ := m.ScanFrom(StartState, pl); states[i] != end {
			t.Errorf("payload %d/%d: ScanFromBatch ends in state %d, the scalar walk in %d", i, n, states[i], end)
		}
	}
}

func TestScanBatchVsScalar(t *testing.T) {
	allBytes := make([][]byte, 0, 64)
	for c := 0; c < 256; c += 4 { // every byte value occurs in some pattern
		allBytes = append(allBytes, []byte{byte(c), byte(c + 1), byte(c + 2), byte(c + 3)})
	}
	sets := map[string][][]byte{
		"suffixes":  {[]byte("abcab"), []byte("bcab"), []byte("cab"), []byte("ab"), []byte("b")},
		"overlap":   {[]byte("aa"), []byte("aaa"), []byte("aba"), []byte("ba")},
		"all-bytes": allBytes,
		"one-byte":  {[]byte("a")},
	}
	rng := rand.New(rand.NewSource(15))
	for name, patterns := range sets {
		var alphabet []byte
		for _, p := range patterns {
			alphabet = append(alphabet, p...)
		}
		alphabet = append(alphabet, 'z', 0xff) // plus bytes outside most sets
		for group := 0; group <= 9; group++ {
			for round := 0; round < 8; round++ {
				payloads, cuts := make([][]byte, group), make([]int, group)
				for i := range payloads {
					// Uneven lengths; every other round forces an empty payload.
					l := rng.Intn(48)
					if round%2 == 1 && i == round%group {
						l = 0
					}
					payloads[i] = make([]byte, l)
					for j := range payloads[i] {
						payloads[i][j] = alphabet[rng.Intn(len(alphabet))]
					}
					cuts[i] = rng.Intn(l + 1)
				}
				checkBatch(t, patterns, payloads, cuts)
				if t.Failed() {
					t.Fatalf("pattern set %q, %d payloads", name, group)
				}
			}
		}
	}
}

// FuzzScanBatchVsScalar decodes a pattern set and a group of payloads from
// the fuzz input: each item is a length byte followed by that many bytes.
func FuzzScanBatchVsScalar(f *testing.F) {
	f.Add([]byte("\x02he\x03she\x03his\x04hers"), []byte("\x06ushers\x00\x03his\x09shershehe\x02he"))
	f.Add([]byte("\x01a\x02aa\x03aaa"), []byte("\x05aaaaa\x01a\x04baab\x03aaa\x02aa"))
	f.Add([]byte("\x03\x00\xff\x00"), []byte("\x04\x00\xff\x00\xff"))
	f.Fuzz(func(t *testing.T, patBlob, dataBlob []byte) {
		decode := func(blob []byte, maxLen, maxItems int, keepEmpty bool) [][]byte {
			var items [][]byte
			for len(blob) > 0 && len(items) < maxItems {
				l := min(int(blob[0])%(maxLen+1), len(blob)-1)
				if l > 0 || keepEmpty {
					items = append(items, blob[1:1+l])
				}
				blob = blob[1+l:]
			}
			return items
		}
		patterns := decode(patBlob, 6, 12, false)
		if len(patterns) == 0 {
			t.Skip()
		}
		payloads := decode(dataBlob, 40, 9, true)
		cuts := make([]int, len(payloads))
		for i, pl := range payloads {
			cuts[i] = (i * 7) % (len(pl) + 1)
		}
		checkBatch(t, patterns, payloads, cuts)
	})
}

// idsScalePatterns fabricates a Snort-scale rule set: 1500 patterns of 6–16
// bytes over a 31-symbol alphabet.
func idsScalePatterns() []string {
	rng := rand.New(rand.NewSource(7))
	const alpha = "ABCDEFGHIJKLMNOPQRSTUVWXYZ/._-%"
	out := make([]string, 1500)
	for i := range out {
		b := make([]byte, 6+rng.Intn(11))
		for j := range b {
			b[j] = alpha[rng.Intn(len(alpha))]
		}
		out[i] = string(b)
	}
	return out
}

// BenchmarkScanStatsBatch scans one 64-packet batch of 1000-byte ciphertext
// payloads — what the IDS sees behind the IPsec gateway — per iteration.
func BenchmarkScanStatsBatch(b *testing.B) {
	m, err := NewMatcherStrings(idsScalePatterns())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	payloads := make([][]byte, 64)
	for i := range payloads {
		payloads[i] = make([]byte, 1000)
		rng.Read(payloads[i])
	}
	matches, deep := make([]int, len(payloads)), make([]int, len(payloads))
	b.SetBytes(int64(len(payloads)) * 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ScanStatsBatch(payloads, matches, deep)
	}
}

// BenchmarkNewMatcher builds the 1500-pattern automaton.
func BenchmarkNewMatcher(b *testing.B) {
	patterns := idsScalePatterns()
	for i := 0; i < b.N; i++ {
		if _, err := NewMatcherStrings(patterns); err != nil {
			b.Fatal(err)
		}
	}
}
