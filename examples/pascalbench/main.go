// Pascalbench: the full software toolchain of the paper on a Pascal-style
// workload — compile with tinyc, schedule with the code reorganizer under
// several branch schemes, run each on the machine, and compare the branch
// costs the way paper Table 1 does. A final profile-feedback build shows
// the "static prediction (possibly with profiling)" flow.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/reorg"
	"repro/internal/tinyc"
	"repro/internal/trace"
)

const source = `
var a[128];
func main() {
	var i; var j; var t; var n;
	n = 128;
	i = 0;
	while (i < n) { a[i] = (n - i) * 7 % 1000; i = i + 1; }
	i = 0;
	while (i < n - 1) {
		j = 0;
		while (j < n - 1 - i) {
			if (a[j] > a[j+1]) { t = a[j]; a[j] = a[j+1]; a[j+1] = t; }
			j = j + 1;
		}
		i = i + 1;
	}
	print(a[0]);
	print(a[127]);
}
`

func runScheme(scheme reorg.Scheme, prof reorg.Profile) (*core.Machine, error) {
	im, err := tinyc.Build(source, scheme, prof)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.Pipeline.BranchSlots = scheme.Slots
	m := core.New(cfg, nil)
	m.Load(im)
	if _, err := m.Run(100_000_000); err != nil {
		return nil, err
	}
	return m, nil
}

func main() {
	fmt.Println("scheme                         cycles   cycles/branch   no-ops")
	for _, scheme := range reorg.Table1Schemes() {
		m, err := runScheme(scheme, nil)
		if err != nil {
			log.Fatal(err)
		}
		p := m.CPU.Stats
		fmt.Printf("%-28s  %8d   %10.2f   %5.1f%%\n",
			scheme, p.Cycles, p.CyclesPerBranch(), 100*p.NopFraction())
	}

	// Profile feedback: run once, feed the measured branch directions back
	// into the reorganizer, rebuild, run again.
	im, err := tinyc.Build(source, reorg.Default(), nil)
	if err != nil {
		log.Fatal(err)
	}
	m := core.New(core.DefaultConfig(), nil)
	m.Load(im)
	var rec trace.Recorder
	rec.Attach(m.CPU)
	if _, err := m.Run(100_000_000); err != nil {
		log.Fatal(err)
	}
	prof := trace.Profile(im, rec.Branches)
	m2, err := runScheme(reorg.Default(), prof)
	if err != nil {
		log.Fatal(err)
	}
	p := m2.CPU.Stats
	fmt.Printf("%-28s  %8d   %10.2f   %5.1f%%\n",
		"shipped scheme + profile", p.Cycles, p.CyclesPerBranch(), 100*p.NopFraction())
	fmt.Printf("\nprogram output (sorted bounds): %q\n", m2.Output())
}
