package core_test

import (
	"fmt"
	"log"
	"os"

	"repro/internal/core"
)

// The README's quickstart: a hand-scheduled loop that sums 1..10 on the full
// system (pipeline, on-chip Icache, external cache). The two no-ops after
// the branch are its delay slots: MIPS-X has no hardware interlocks, so the
// instruction stream itself must respect the pipeline (for compiled code,
// tinyc.Build runs the code reorganizer that does this).
func ExampleMachine() {
	m := core.New(core.DefaultConfig(), os.Stdout)
	err := m.LoadSource(`
main:	addi r1, r0, 10
	addi r2, r0, 0
loop:	add  r2, r2, r1
	addi r1, r1, -1
	bne.sq r1, r0, loop   ; squashing branch, predicted taken
	nop                   ; delay slot 1
	nop                   ; delay slot 2
	putw r2
	halt
`)
	if err != nil {
		log.Fatal(err)
	}
	cycles, err := m.Run(1_000_000)
	if err != nil {
		log.Fatal(err)
	}
	s := m.Stats()
	fmt.Printf("%d cycles, %d instructions, CPI %.2f\n", cycles, s.Pipeline.Issued(), s.CPI())
	fmt.Printf("%d branches at %.2f cycles each, Icache %.1f%% miss (cold start)\n",
		s.Pipeline.Branches, s.Pipeline.CyclesPerBranch(), 100*s.Icache.MissRatio())
	// Output:
	// 55
	// 96 cycles, 53 instructions, CPI 1.81
	// 10 branches at 3.00 cycles each, Icache 10.5% miss (cold start)
}

// The minimal-state exception mechanism end to end. An exception freezes
// the pipeline, the PC chain holds the three instructions to restart, and
// the handler at address zero saves them, services the cause, reloads the
// chain and restarts with three special jumps, the last (jpcrs) restoring
// the PSW. A device interrupt is posted mid-loop through the off-chip
// interrupt controller (coprocessor 2), and an arithmetic overflow takes the
// maskable trap the design chose over a sticky-overflow bit.
//
// The console prints the cause the interrupt controller reports (42, the
// device), the loop's result (exact despite the interrupt), the overflow
// trap's controller cause (0: no device pending), r11 after the trap (0:
// the result was suppressed) and the exception count (one interrupt, one
// trap). One squash state machine counts both kinds of event.
func ExampleMachine_exceptions() {
	m := core.New(core.DefaultConfig(), os.Stdout)
	err := m.LoadSource(`
; ---- exception handler, at address 0 in system space ----
handler:
	movs r20, pc0          ; save the frozen PC chain
	movs r21, pc1
	movs r22, pc2
	movs r24, psw          ; cause bits live in the PSW
	addi r23, r23, 1       ; count exceptions
	ldc r25, c2, 0(r0)     ; ask the interrupt controller for the cause
	nop
	putw r25               ; 0 when the exception was not a device interrupt
	; overflow? then skip the faulting instruction instead of retrying it
	movs r26, psw
	sh r26, r0, r26, 5     ; extract the overflow-cause bit
	and r26, r26, r27      ; r27 holds 1
	beq r26, r0, restart
	nop
	nop
	addi r20, r20, 1       ; advance past the overflowing instruction
	addi r21, r21, 1
	addi r22, r22, 1
restart:
	mots pc0, r20          ; reload the chain
	mots pc1, r21
	mots pc2, r22
	nop
	nop
	jpc                    ; three special jumps refill the pipeline
	jpc
	jpcrs                  ; ...and jpcrs restores the PSW
; ---- main program ----
main:	addi r27, r0, 1
	li  r10, 519           ; system | interrupts | ovf trap | PC-chain shift
	mots psw, r10
	nop
	nop
	addi r1, r0, 0
	addi r2, r0, 60
loop:	addi r1, r1, 1         ; interrupted somewhere in here
	bne.sq r1, r2, loop
	nop
	nop
	putw r1
	li  r9, 0x7FFFFFFF
	add r11, r9, r9        ; overflow: trap, result suppressed, then skipped
	putw r11
	putw r23
	halt
`)
	if err != nil {
		log.Fatal(err)
	}
	// Step the machine by hand so the device can post its interrupt
	// mid-loop.
	var cycles uint64
	posted := false
	for !m.Console.Halted {
		if cycles > 150 && !posted {
			m.IntC.Post(42) // the device's cause code
			posted = true
		}
		m.CPU.IntLine = m.IntC.Pending()
		cycles += uint64(m.CPU.Step())
		if cycles > 1_000_000 {
			log.Fatal("no halt")
		}
	}
	fmt.Printf("squash FSM: %d exception events, %d branch events\n",
		m.CPU.Squash.Events[0], m.CPU.Squash.Events[1])
	// Output:
	// 42
	// 60
	// 0
	// 0
	// 2
	// squash FSM: 2 exception events, 1 branch events
}
