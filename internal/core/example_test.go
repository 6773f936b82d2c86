package core_test

import (
	"fmt"

	"nfcompass/internal/core"
	"nfcompass/internal/nf"
)

func ExampleParallelize() {
	// probe reads; NAT writes the header; IDS reads it again.
	chain := []*nf.NF{
		{Name: "probe", Profile: nf.TableII[nf.KindProbe]},
		{Name: "nat", Profile: nf.TableII[nf.KindNAT]},
		{Name: "ids", Profile: nf.TableII[nf.KindIDS]},
	}
	for i, st := range core.Parallelize(chain) {
		names := make([]string, len(st.NFs))
		for j, f := range st.NFs {
			names[j] = f.Name
		}
		fmt.Printf("stage %d: %v\n", i, names)
	}
	// Output:
	// stage 0: [probe nat]
	// stage 1: [ids]
}

func ExampleAnalyze() {
	nat := nf.TableII[nf.KindNAT] // writes the header
	ids := nf.TableII[nf.KindIDS] // reads header and payload
	// NAT first: IDS would read stale data.
	fmt.Println(core.Analyze(nat, ids) == core.HazardRAW)
	// IDS first: write-after-read is safe.
	fmt.Println(core.Analyze(ids, nat) == core.HazardNone)
	// Output:
	// true
	// true
}
