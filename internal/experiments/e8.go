package experiments

import (
	"context"
	"fmt"

	"repro/internal/icache"
	"repro/internal/pipeline"
	"repro/internal/spec"
)

// handlerAsm is the paper's minimal exception handler: save the PC chain,
// advance past the trap, reload, and restart with three special jumps.
const handlerAsm = `
handler:
	movs r20, pc0
	movs r21, pc1
	movs r22, pc2
	addi r23, r23, 1
	addi r20, r20, 1
	addi r21, r21, 1
	addi r22, r22, 1
	mots pc0, r20
	mots pc1, r21
	mots pc2, r22
	nop
	nop
	jpc
	jpc
	jpcrs
`

// trapLoop executes n iterations, trapping once per iteration when trap=1.
func trapLoop(n int, withTrap bool) string {
	body := "\tnop\n"
	if withTrap {
		body = "\ttrap 0\n"
	}
	return handlerAsm + fmt.Sprintf(`
main:	addi r1, r0, %d
loop:	%s
	addi r1, r1, -1
	bne.sq r1, r0, loop
	nop
	nop
	halt
`, n, body)
}

// trapIters is how many iterations E8's trap loops run.
const trapIters = 200

// squashLoop drives the squash FSM from branches alone: a squashing loop
// branch taken 49 times and not taken once.
const squashLoop = `
main:	addi r1, r0, 50
loop:	addi r1, r1, -1
	bne.sq r1, r0, loop
	nop
	nop
	halt
`

// overflowKernel enables the overflow trap in the PSW and overflows once.
const overflowKernel = `
main:	li r9, 0x7FFFFFFF
	li r10, 517
	mots psw, r10
	nop
	nop
	add r11, r9, r9
	halt
`

// ExceptionHandling reproduces the exception-mechanism results (§Exception
// Handling, Figures 3 and 4): the squash FSM serves both exceptions and
// branch squashing, exception entry+restart is a handful of cycles, and the
// trap-on-overflow design is compared against the rejected sticky bit.
func ExceptionHandling() (*Table, error) {
	t := &Table{
		ID:     "E8",
		Title:  "Exception handling and the shared squash FSM",
		Paper:  "freeze pipeline, save 3 PCs, restart with 3 jumps; squashing branches reuse the exception FSM (+1 input); trap on overflow simpler than sticky bit",
		Header: []string{"measure", "value"},
	}
	// Five independent machine runs, one cell each.
	sticky := spec.Default()
	sticky.Pipeline.StickyOverflow = true
	// Five independent memoizable machine runs, one cell each (RunResult
	// carries the register file, PSW and squash-FSM counters the rows
	// read, so replays are state-identical to live runs).
	var base, trap, br, trapM, stickyM RunResult
	cells := []Cell{
		asmCell("E8/base-loop", trapLoop(trapIters, false), spec.Default(), &base),
		asmCell("E8/trap-loop", trapLoop(trapIters, true), spec.Default(), &trap),
		asmCell("E8/branch-squash", handlerAsm+squashLoop, spec.Default(), &br),
		asmCell("E8/overflow-trap", handlerAsm+overflowKernel, spec.Default(), &trapM),
		asmCell("E8/overflow-sticky", handlerAsm+overflowKernel, sticky, &stickyM),
	}
	if err := DefaultEngine().Run(context.Background(), cells); err != nil {
		return nil, err
	}
	if trap.Regs[23] != trapIters {
		return nil, fmt.Errorf("exception loop took %d exceptions, want %d", trap.Regs[23], trapIters)
	}
	perTrap := float64(trap.Stats.Pipeline.Cycles-base.Stats.Pipeline.Cycles) / trapIters
	t.AddRow("cycles per exception (entry + minimal handler + 3-jump restart)", perTrap)
	t.AddRow("exceptions taken", trap.Stats.Pipeline.Exceptions)
	t.AddRow("instructions killed per exception", float64(trap.Stats.Pipeline.Killed)/trapIters)
	t.AddRow("squash FSM events from exceptions", trap.SquashEvents[pipeline.CauseException])

	// The same FSM driven by branch squashing (the single extra input).
	t.AddRow("squash FSM events from branches (same machine)", br.SquashEvents[pipeline.CauseBranch])

	// Figure 4: the cache-miss FSM walk for the chosen 2-cycle service.
	var fsm string
	for _, tr := range icache.StateTable(2) {
		fsm += fmt.Sprintf("%s→%s ", tr[0], tr[1])
	}
	t.AddRow("Icache miss FSM walk (Figure 4)", fsm)
	t.AddRow("squash FSM walk (Figure 3)", "Idle→Sq1→Sq2→Idle")

	// Overflow mechanism ablation: trap on overflow suppresses the result
	// and vectors; the sticky bit completes the instruction and only
	// records the fact.
	t.AddRow("trap-on-overflow: exceptions / result written", fmt.Sprintf("%d / %v",
		trapM.Stats.Pipeline.Exceptions, trapM.Regs[11] != 0))
	t.AddRow("sticky-overflow:  exceptions / result written / PSW bit", fmt.Sprintf("%d / %v / %v",
		stickyM.Stats.Pipeline.Exceptions, stickyM.Regs[11] != 0, stickyM.PSW&8 != 0))
	t.Notes = append(t.Notes,
		"the two FSMs occupy <0.2% of die area on the chip; here they are the only global controllers, as on the chip")
	return t, nil
}
