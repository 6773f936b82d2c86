package main

// keep lists the functions under internal/ that no binary links and that
// stay anyway, grouped by why. A function belongs here only for one of
// these reasons; anything else no binary reaches is deleted or moved into
// the _test.go file that uses it.
var keep = []struct {
	reason string
	funcs  []string
}{
	{
		reason: "next step of ROADMAP item 3: the compiled decision table every ACL NF is to ship",
		funcs: []string{
			"acl.CompileTable", "acl.(*Table).compileDim", "acl.scatter", "acl.intervalIndex",
			"acl.(*Table).Match", "acl.(*Table).Words", "acl.(*Table).Classes",
			"acl.dimMax", "acl.maxInt",
			"nf.NewFirewallTable", "nf.NewACLFilterTable",
		},
	},
	{
		reason: "next step of ROADMAP item 6(a): the price of one fused device-resident segment",
		funcs:  []string{"hetsim.(*CostModel).SegmentGPUServiceNs"},
	},
	{
		reason: "oracle: tests compare the live code against it",
		funcs: []string{
			// DIR-24-8 and the hash LPM against the binary tries.
			"trie.(*IPv4Trie).Lookup", "trie.(*IPv6Trie).Lookup",
			// Batched and stream scans against the scalar scan.
			"ac.(*Matcher).Scan",
			// HiCuts tree and decision table against the rule list.
			"acl.(*List).MatchLinear",
			// Set.MatchCount against the list of matching patterns.
			"redfa.(*Set).Match",
			// Decrypts what the ESP seal writes.
			"ipsec.(*SA).Open", "ipsec.(*SA).checkReplay", "ipsec.(*SA).acceptReplay",
			// Toeplitz known-answer vectors, and the per-packet mapping
			// QueueBatch must repeat.
			"ingress.(*RSS).Hash4", "ingress.(*RSS).HashPacket", "ingress.(*RSS).Queue",
			// Decode the headers builders and rewriters write.
			"netpkt.ParseEthernet", "netpkt.ParseUDP",
			// The sequential reference executor, rerun.
			"element.(*Executor).Reset",
		},
	},
	{
		reason: "test switch or checker",
		funcs: []string{
			"netpkt.SetPoolPoison", "netpkt.Outstanding",
			"stats.ValidateExposition", "stats.validateComment", "stats.validateSample",
			"stats.familyOf", "stats.splitName", "stats.parseLabels", "stats.parseQuoted",
			"stats.validMetricName", "stats.validLabelName",
			"stats.(*LatencySample).N",
			"ingress.(*CollectSink).Consume", "ingress.(*CollectSink).Close",
			"telemetry.(*Server).Handler",
			"graph.(*WGraph).Feasible",
			"element.(*Graph).Sinks",
		},
	},
	{
		reason: "fixture: tests in several packages build graphs or inputs from it",
		funcs: []string{
			"element.NewPaint", "element.(*Paint).Name", "element.(*Paint).Traits",
			"element.(*Paint).NumOutputs", "element.(*Paint).Signature",
			"element.(*Paint).Process", "element.(*Paint).ProcessSingle",
			"element.NewTee", "element.(*Tee).Name", "element.(*Tee).Traits",
			"element.(*Tee).NumOutputs", "element.(*Tee).Signature", "element.(*Tee).Process",
			"element.NewDiscard", "element.(*Discard).Name", "element.(*Discard).Traits",
			"element.(*Discard).NumOutputs", "element.(*Discard).Signature",
			"element.(*Discard).Process", "element.(*Discard).Reset",
			"core.NewDuplicator",
		},
	},
	{
		reason: "method of an interface the type satisfies in live code, which no binary calls on it",
		funcs:  []string{"traffic.Uniform.Name"},
	},
}

// keepList maps each kept function to its reason.
func keepList() map[string]string {
	m := map[string]string{}
	for _, g := range keep {
		for _, f := range g.funcs {
			m[f] = g.reason
		}
	}
	return m
}
