package main

// keep lists the functions under internal/ that no binary links and that
// stay anyway, grouped by why. A function belongs here only for one of
// these reasons; anything else no binary reaches is deleted or moved into
// the _test.go file that uses it.
var keep = []keepGroup{
	{
		reason: "next step of ROADMAP item 6(a): the price of one fused device-resident segment",
		names:  []string{"hetsim.(*CostModel).SegmentGPUServiceNs"},
	},
	{
		reason: "oracle: tests compare the live code against it",
		names: []string{
			// DIR-24-8 and the hash LPM against the binary tries.
			"trie.(*IPv4Trie).Lookup", "trie.(*IPv6Trie).Lookup",
			// Batched and stream scans against the scalar scan.
			"ac.(*Matcher).Scan",
			// HiCuts tree against the rule list.
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
		names: []string{
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
		names: []string{
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
		reason: "ROADMAP item 10(c): the benchmark's flowtable.* layer still times Sharded, which the pump no longer uses; the item re-defines those rows on Table, then deletes Sharded",
		names:  []string{"flowtable.(*Sharded).Evictions", "flowtable.(*Sharded).Expired"},
	},
	{
		reason: "method of an interface the type satisfies in live code, which no binary calls on it",
		names:  []string{"traffic.Uniform.Name"},
	},
}

// keepFields lists the option fields that no file outside their package
// writes and that stay anyway. Each reason names the ROADMAP item that will
// set the field or delete it.
var keepFields = []keepGroup{}

// keepGroup is a keep-list entry: the names that stay for one reason.
type keepGroup struct {
	reason string
	names  []string
}

// reasons maps each kept name to its reason.
func reasons(groups []keepGroup) map[string]string {
	m := map[string]string{}
	for _, g := range groups {
		for _, n := range g.names {
			m[n] = g.reason
		}
	}
	return m
}
