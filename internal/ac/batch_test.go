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

// windows are the scan windows the batch tests run besides the matcher's
// own (0): short ones, so that scans cross window edges mid-payload.
var windows = []int{0, 1, 2, 3, 5}

// checkBatch compares both batch entry points with the reference, each scan
// summing over the given window (0 keeps the matcher's): payload i is
// scanned whole by ScanStatsBatch, and by ScanFromBatch resumed after its
// first cuts[i] bytes.
func checkBatch(t *testing.T, patterns, payloads [][]byte, cuts []int, window int) {
	t.Helper()
	m, err := NewMatcher(patterns)
	if err != nil {
		t.Fatal(err)
	}
	if window > 0 {
		m.window = window
	}
	n := len(payloads)
	matches := make([]int, n)
	deep := m.ScanStatsBatch(payloads, matches)

	states, tails := make([]State, n), make([][]byte, n)
	headM, headD := make([]int, n), 0
	for i, pl := range payloads {
		var d int
		states[i], headM[i], d = m.ScanFrom(StartState, pl[:cuts[i]])
		headD += d
		tails[i] = pl[cuts[i]:]
	}
	tailM := make([]int, n)
	tailD := m.ScanFromBatch(states, tails, tailM)

	wantDeep := 0
	for i, pl := range payloads {
		wantM, wantD := naiveStats(patterns, pl)
		wantDeep += wantD
		if matches[i] != wantM {
			t.Errorf("window %d, payload %d/%d (%d B): ScanStatsBatch matches %d, reference %d",
				window, i, n, len(pl), matches[i], wantM)
		}
		if got := headM[i] + tailM[i]; got != wantM {
			t.Errorf("window %d, payload %d/%d (%d B, resumed at %d): ScanFromBatch matches %d, reference %d",
				window, i, n, len(pl), cuts[i], got, wantM)
		}
		end, gotM, gotD := m.ScanFrom(StartState, pl)
		if states[i] != end {
			t.Errorf("window %d, payload %d/%d: ScanFromBatch ends in state %d, the scalar walk in %d",
				window, i, n, states[i], end)
		}
		if gotM != wantM || gotD != wantD {
			t.Errorf("window %d, payload %d/%d (%d B): ScanFrom = (%d, %d), reference (%d, %d)",
				window, i, n, len(pl), gotM, gotD, wantM, wantD)
		}
	}
	if deep != wantDeep {
		t.Errorf("window %d, %d payloads: ScanStatsBatch deep states %d, reference %d", window, n, deep, wantDeep)
	}
	if got := headD + tailD; got != wantDeep {
		t.Errorf("window %d, %d payloads: ScanFromBatch deep states %d (after %d before the cuts), reference %d",
			window, n, got, headD, wantDeep)
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
				for _, w := range windows {
					checkBatch(t, patterns, payloads, cuts, w)
				}
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
		for _, w := range windows {
			checkBatch(t, patterns, payloads, cuts, w)
		}
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
	matches := make([]int, len(payloads))
	b.SetBytes(int64(len(payloads)) * 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ScanStatsBatch(payloads, matches)
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

// TestWindowCarryBound: at the largest table NewMatcher accepts, for every
// row width, a window's low words cannot carry into the deep-state count,
// the count cannot overflow its word, and the window is the longest that
// keeps both (unless capped).
func TestWindowCarryBound(t *testing.T) {
	for shift := 0; shift <= 8; shift++ {
		maxState := uint64(maxEntries - 1<<shift)
		w := uint64(windowFor(uint32(maxState)))
		if w < 1 || Lanes*w*maxState >= 1<<32 || Lanes*w >= 1<<32 {
			t.Errorf("width %d: window %d carries (%d lanes × %d × %d)", 1<<shift, w, Lanes, w, maxState)
		}
		if w < 1<<20 && Lanes*(w+1)*maxState < 1<<32 {
			t.Errorf("width %d: window %d is not the longest safe one", 1<<shift, w)
		}
	}
}

// TestScanWindowsLongDeepPayload scans payloads that stay deep for so long
// that one lane's entries, summed whole, carry out of the low word: the
// deep-state counts must still match a walk that counts off-root states
// directly, so only the window split keeps them exact.
func TestScanWindowsLongDeepPayload(t *testing.T) {
	patterns := idsScalePatterns()
	m, err := NewMatcherStrings(patterns)
	if err != nil {
		t.Fatal(err)
	}
	payloads := make([][]byte, Lanes)
	wantDeep := 0
	for i := range payloads {
		for len(payloads[i]) < 1<<16 {
			payloads[i] = append(payloads[i], patterns[i]...)
		}
		var s uint32
		var low uint64
		deep := 0
		for _, c := range payloads[i] {
			s = uint32(m.tab[s+uint32(m.class[c])])
			low += uint64(s)
			if s != 0 {
				deep++
			}
		}
		if low < 1<<32 {
			t.Fatalf("payload %d: the low words sum to %d, short of a carry", i, low)
		}
		if _, _, got := m.ScanFrom(StartState, payloads[i]); got != deep {
			t.Errorf("payload %d: ScanFrom deep states %d, off-root walk %d", i, got, deep)
		}
		wantDeep += deep
	}
	if got := m.ScanStatsBatch(payloads, make([]int, Lanes)); got != wantDeep {
		t.Errorf("ScanStatsBatch deep states %d, off-root walk %d", got, wantDeep)
	}
}
