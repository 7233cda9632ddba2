package scenario_test

import (
	"context"
	"fmt"
	"log"

	"repro/internal/reorg"
	"repro/internal/scenario"
	"repro/internal/spec"
	"repro/internal/tinyc"
)

// E11's cluster with the memory hierarchy of a first-generation board: no
// on-chip Icache and a 256-word external cache, so nearly every fetch
// reaches the shared bus, which saturates at once. Every node runs the
// sieve benchmark. As built, four nodes reach 71.8 MIPS (mipsx-bench -only
// E11); here they reach 18.6. The two-level cache is what makes the
// multiprocessor viable.
func ExampleRunWith_multiprocessor() {
	ms := spec.Default()
	ms.ICache.Disabled = true
	ms.ECache.SizeWords = 256
	sieve, err := tinyc.BenchmarkByName("sieve")
	if err != nil {
		log.Fatal(err)
	}
	for _, n := range []int{1, 4} {
		progs := make([]scenario.Program, n)
		for i := range progs {
			progs[i] = scenario.Program{Name: fmt.Sprintf("node%d", i), Source: sieve.Source, Expect: sieve.Expect()}
		}
		r, err := scenario.RunWith(context.Background(), progs, reorg.Default(), ms,
			scenario.RunOpts{Multiprocessor: true})
		if err != nil {
			log.Fatal(err)
		}
		s := r.Cluster()
		fmt.Printf("%d-node cluster: %.1f MIPS, %.0f bus-wait cycles per node\n",
			n, s.AggregateMIPS, float64(s.BusWaitCycles)/float64(n))
	}
	// Output:
	// 1-node cluster: 5.3 MIPS, 0 bus-wait cycles per node
	// 4-node cluster: 18.6 MIPS, 7578 bus-wait cycles per node
}
