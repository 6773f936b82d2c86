package acl

import (
	"strings"
	"testing"
)

// FuzzParseClassBench hardens the filter-set reader: arbitrary text must
// either fail cleanly or produce rules the tree builder consumes without
// panicking, into a tree node-for-node identical to the reference
// builder's that classifies like the linear matcher.
func FuzzParseClassBench(f *testing.F) {
	f.Add("@192.168.0.0/16\t10.0.0.0/8\t0 : 65535\t80 : 80\t0x06/0xFF")
	f.Add("# comment\n@0.0.0.0/0 0.0.0.0/0 0 : 0 0 : 0 0x00/0x00")
	f.Add("@999.1.2.3/40 x y z")
	f.Fuzz(func(t *testing.T, text string) {
		if len(text) > 4096 {
			return
		}
		l, err := ParseClassBench(strings.NewReader(text))
		if err != nil {
			return
		}
		if l.Len() == 0 {
			return
		}
		if l.Len() > 64 {
			l.Rules = l.Rules[:64] // bound tree build work
		}
		tree := BuildTree(l, 4)
		if err := sameTree(tree, buildRefTree(l, 4)); err != nil {
			t.Fatal(err)
		}
		k := Key{Src: 0x01020304, Dst: 0x05060708, SrcPort: 1, DstPort: 2}
		ta, ti, _ := tree.Match(k)
		la, li := l.MatchLinear(k)
		if ta != la || ti != li {
			t.Fatalf("tree (%v,%d) != linear (%v,%d)", ta, ti, la, li)
		}
	})
}
