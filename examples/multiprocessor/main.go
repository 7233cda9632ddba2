// Multiprocessor: the system MIPS-X was designed for. The project's goal
// was "to use 6-10 of these processors as the nodes in a shared memory
// multiprocessor. The resulting machine would be about two orders of
// magnitude more powerful than a VAX 11/780 minicomputer." This example
// builds that cluster: N complete MIPS-X nodes (each with its own on-chip
// Icache and external cache) sharing one main memory behind one arbitrated
// bus, and shows both the scaling and why the on-chip instruction cache is
// what makes it possible.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/reorg"
	"repro/internal/scenario"
	"repro/internal/spec"
	"repro/internal/tinyc"
)

// runCluster runs the sieve of Eratosthenes on every node of an n-node
// cluster.
func runCluster(n int, ms spec.MachineSpec) scenario.ClusterStats {
	progs := make([]scenario.Program, n)
	for i := range progs {
		progs[i] = scenario.Program{Name: fmt.Sprintf("node%d", i),
			Source: tinyc.Benchmarks()[3].Source, Expect: "78\n"} // primes below 400
	}
	r, err := scenario.RunWith(context.Background(), progs, reorg.Default(), ms,
		scenario.RunOpts{Multiprocessor: true})
	if err != nil {
		log.Fatal(err)
	}
	return r.Cluster()
}

func main() {
	fmt.Println("nodes  aggregate MIPS  bus wait/node")
	for _, n := range []int{1, 2, 4, 6, 8, 10} {
		s := runCluster(n, spec.Default())
		fmt.Printf("%5d  %14.1f  %13.0f\n", n, s.AggregateMIPS,
			float64(s.BusWaitCycles)/float64(n))
	}

	// The same cluster with the memory hierarchy of a first-generation
	// board: no on-chip Icache and only a small external cache, so most
	// fetches reach the shared bus — which saturates immediately. The
	// two-level cache is what makes the multiprocessor viable.
	fmt.Println("\nwithout the on-chip Icache and with a 256-word board cache:")
	ms := spec.Default()
	ms.ICache.Disabled = true
	ms.ECache.SizeWords = 256
	for _, n := range []int{1, 4} {
		s := runCluster(n, ms)
		fmt.Printf("%5d  %14.1f  %13.0f\n", n, s.AggregateMIPS,
			float64(s.BusWaitCycles)/float64(n))
	}
}
