package core

import (
	"errors"
	"testing"

	"repro/internal/mem"
)

// contendedSrc is a short loop with enough fetch traffic to put refills on
// the shared bus from both nodes.
const contendedSrc = `
main:	addi r1, r0, 50
loop:	addi r1, r1, -1
	bne.sq r1, r0, loop
	nop
	nop
	halt
`

// TestSharedBusContendedMachines builds a two-node shared-bus configuration
// (shared memory, shared arbiter, each bus on its node's pipeline clock) and
// runs both nodes to completion, interleaved lowest-clock-first as the
// scenario scheduler does — the arbitration path exercises Bus.Now on every
// transfer.
func TestSharedBusContendedMachines(t *testing.T) {
	shared := mem.New()
	arb := &mem.Arbiter{}
	nodes := [2]*Machine{}
	for i := range nodes {
		n := NewShared(DefaultConfig(), shared, arb, nil)
		n.Bus.Now = func() uint64 { return n.CPU.Stats.Cycles }
		nodes[i] = n
		if err := nodes[i].LoadSource(contendedSrc); err != nil {
			t.Fatal(err)
		}
	}
	for {
		var next *Machine
		for _, n := range nodes {
			if n.Console.Halted {
				continue
			}
			if next == nil || n.CPU.Stats.Cycles < next.CPU.Stats.Cycles {
				next = n
			}
		}
		if next == nil {
			break
		}
		if next.CPU.Stats.Cycles > 1_000_000 {
			t.Fatalf("node did not halt within 1M cycles (pc %#x)", next.CPU.PC())
		}
		if _, err := next.Run(256); err != nil && !errors.Is(err, ErrNotHalted) {
			t.Fatal(err)
		}
	}
	if arb.Transfers == 0 {
		t.Fatal("no transfers crossed the shared bus arbiter")
	}
}
