package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nfcompass/internal/core"
	"nfcompass/internal/dataplane"
	"nfcompass/internal/element"
	"nfcompass/internal/hetsim"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/spec"
	"nfcompass/internal/traffic"
)

// TestCheckModes pins the run-mode table: every combination in which a flag
// would be ignored is refused with its reason, and every combination some
// mode reads is accepted.
func TestCheckModes(t *testing.T) {
	// The flag defaults, as flag.Parse leaves them.
	def := modeFlags{loops: 1}
	with := func(edit func(*modeFlags)) modeFlags {
		f := def
		edit(&f)
		return f
	}
	for _, tc := range []struct {
		name string
		f    modeFlags
		want string // the refusal; "" = legal
	}{
		{"batch comparison", def, ""},
		{"batch -pcap", with(func(f *modeFlags) { f.pcap = "t.pcap" }), ""},
		{"-source with its knobs", with(func(f *modeFlags) { f.source, f.pin, f.loops, f.pps = "nic:queues=4", true, 4, 6000 }), ""},
		{"-source -pcap (synthetic-trace override)", with(func(f *modeFlags) { f.source, f.pcap = "nic:queues=2", "t.pcap" }), ""},
		{"-serve", with(func(f *modeFlags) { f.serve = ":9090" }), ""},
		{"-serve -duration -shards", with(func(f *modeFlags) { f.serve, f.durationSet, f.shardsSet = ":9090", true, true }), ""},
		{"-source -shards", with(func(f *modeFlags) { f.source, f.shardsSet = "pcap:t.pcap", true }), ""},
		{"-serve -fleet", with(func(f *modeFlags) { f.serve, f.fleet = ":9090", true }), ""},

		{"-fleet alone", with(func(f *modeFlags) { f.fleet = true }), "-fleet requires -serve ADDR"},
		{"-fleet -source", with(func(f *modeFlags) { f.serve, f.fleet, f.source = ":9090", true, "pcap:t.pcap" }), "-fleet and -source are exclusive: the control plane drives its tenants' traffic itself"},
		{"-fleet -pcap", with(func(f *modeFlags) { f.serve, f.fleet, f.pcap = ":9090", true, "t.pcap" }), "-fleet and -pcap are exclusive: the control plane profiles each revision on synthetic traffic"},
		{"-source -serve", with(func(f *modeFlags) { f.source, f.serve = "pcap:t.pcap", ":9090" }), "-source and -serve are exclusive: -source replays one packet source to its end, -serve generates traffic for -duration"},
		{"-pin without -source", with(func(f *modeFlags) { f.pin = true }), "-pin requires -source: only the ingress run pins shard goroutines"},
		{"-loops without -source", with(func(f *modeFlags) { f.loops = 3 }), "-loops requires -source: it counts passes over the ingress capture"},
		{"-pps without -source", with(func(f *modeFlags) { f.pps = 1000 }), "-pps requires -source: it paces the ingress capture replay"},
		{"-duration without -serve", with(func(f *modeFlags) { f.durationSet = true }), "-duration requires -serve: only the continuous run has a length"},
		{"-duration under -source", with(func(f *modeFlags) { f.source, f.durationSet = "pcap:t.pcap", true }), "-duration requires -serve: only the continuous run has a length"},
		{"-shards on the batch comparison", with(func(f *modeFlags) { f.pcap, f.shardsSet = "t.pcap", true }), "-shards requires -source or -serve: the batch comparison runs no live dataplane"},
		{"-pin under -serve", with(func(f *modeFlags) { f.serve, f.pin = ":9090", true }), "-pin requires -source: only the ingress run pins shard goroutines"},
	} {
		err := checkModes(tc.f)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: accepted, want refusal %q", tc.name, tc.want)
		case tc.want != "" && err.Error() != tc.want:
			t.Errorf("%s: refused with %q, want %q", tc.name, err, tc.want)
		}
	}
}

// TestShardsZeroIsOnePerCPU: -shards 0 means one replica per CPU in every
// live mode — main resolves the flag once with liveShards, and the -source
// pcap:, udp: and nic: sources take that count as it is.
func TestShardsZeroIsOnePerCPU(t *testing.T) {
	want := dataplane.DefaultShards()
	if got := liveShards(0); got != want {
		t.Fatalf("liveShards(0) = %d, want DefaultShards() = %d", got, want)
	}
	if got := liveShards(3); got != 3 {
		t.Fatalf("liveShards(3) = %d", got)
	}

	gen := func() []*netpkt.Batch {
		return traffic.NewGenerator(traffic.Config{Size: traffic.Fixed(256), Seed: 1, Flows: 256}).Batches(16, 32)
	}
	var capt bytes.Buffer
	pw, err := traffic.NewPcapWriter(&capt)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range gen() {
		for _, p := range b.Packets {
			if err := pw.WritePacket(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	file := filepath.Join(t.TempDir(), "t.pcap")
	if err := os.WriteFile(file, capt.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	opts := func(src string) sourceOpts {
		return sourceOpts{spec: src, shards: liveShards(0), loops: 1, batchSize: 32,
			mkBatches: func(int64) []*netpkt.Batch { return gen() }}
	}
	for _, src := range []string{"pcap:" + file, "udp:127.0.0.1:0", "nic:pcap=" + file} {
		s, _, shards, err := parseSourceSpec(opts(src))
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
		if shards != want {
			t.Errorf("-source %s: %d shards, want %d", src, shards, want)
		}
	}

	chain, err := spec.Parse("firewall:200,ipv4,nat", 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.Deploy(chain, hetsim.DefaultPlatform(), gen(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sp, err := runSource(d, opts("nic:pcap="+file))
	if err != nil {
		t.Fatal(err)
	}
	if sp.NumShards() != want {
		t.Errorf("-source nic: %d replicas, want %d", sp.NumShards(), want)
	}
	if rep := sp.Snapshot(); rep.InPackets != 16*32 || rep.InPackets != rep.OutPackets+rep.DropPackets {
		t.Errorf("-source nic: in=%d out=%d drops=%d", rep.InPackets, rep.OutPackets, rep.DropPackets)
	}
}

// TestLivePlaneRunsThePlacement: the -source run executes the placement the
// deployment printed. At one shard and at two, every element of the live
// snapshot sits where d.Assignment puts it, and the offloaded elements
// really ran on the emulated device backend.
func TestLivePlaneRunsThePlacement(t *testing.T) {
	gen := func(seed int64) []*netpkt.Batch {
		return traffic.NewGenerator(traffic.Config{Size: traffic.Fixed(256), Seed: seed, Flows: 256}).Batches(24, 64)
	}
	chain, err := spec.Parse("ipsec,ipv4,ids", 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.Deploy(chain, hetsim.DefaultPlatform(), gen(1000), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := map[element.NodeID]string{}
	for id, pl := range d.Assignment {
		switch pl.Mode {
		case hetsim.ModeGPU:
			want[id] = "gpu"
		case hetsim.ModeSplit:
			want[id] = "split"
		}
	}
	if len(want) == 0 {
		t.Fatalf("the deployment offloads nothing:\n%s", d.Describe())
	}
	for _, shards := range []int{1, 2} {
		sp, err := runSource(d, sourceOpts{
			spec: fmt.Sprintf("nic:queues=%d", shards), shards: shards, loops: 1, batchSize: 64,
			mkBatches: func(off int64) []*netpkt.Batch { return gen(off) },
		})
		if err != nil {
			t.Fatal(err)
		}
		rep := sp.Snapshot()
		for _, e := range rep.Elements {
			place := "cpu"
			if w, ok := want[e.Node]; ok {
				place = w
			}
			if !strings.HasPrefix(e.Placement, place) {
				t.Errorf("%d shards: %s runs on %s, the deployment placed it on %s", shards, e.Name, e.Placement, place)
			}
		}
		if rep.Offload.OffloadedBatches == 0 {
			t.Errorf("%d shards: no batch went through the device backend", shards)
		}
	}
}
