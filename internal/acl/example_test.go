package acl_test

import (
	"fmt"
	"strings"

	"nfcompass/internal/acl"
	"nfcompass/internal/netpkt"
)

func ExampleParseClassBench() {
	filterSet := "@192.168.0.0/16\t10.0.0.0/8\t0 : 65535\t80 : 80\t0x06/0xFF"
	list, _ := acl.ParseClassBench(strings.NewReader(filterSet))
	tree := acl.BuildTree(list, 8)
	action, rule, _ := tree.Match(acl.Key{
		Src: 0xc0a80105, Dst: 0x0a000001,
		SrcPort: 5555, DstPort: 80, Proto: netpkt.IPProtoTCP,
	})
	fmt.Println(action, "by rule", rule)
	// Output: permit by rule 0
}
