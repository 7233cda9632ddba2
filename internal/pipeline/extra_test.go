package pipeline

import (
	"strings"
	"testing"

	"repro/internal/isa"
)

// Additional depth tests: corner cases of the delay-slot, special-register
// and interrupt machinery.

func TestCallSlotOverwritingLinkRegisterWins(t *testing.T) {
	// A delay slot that writes the link register is younger than the jspci:
	// its writeback lands after the link write, so it wins (matches the
	// golden model's rule).
	r := build(t, DefaultConfig(), `
	main:	jspci r9, fn(r0)
		addi r9, r0, 777      ; slot overwrites the link register
		nop
		halt
	fn:	putw r9
		halt
	`)
	r.run(t, 100)
	if got := r.out.String(); got != "777\n" {
		t.Fatalf("output %q: slot write should win over the link value", got)
	}
}

func TestCallSlotReadingLinkRegisterSeesIt(t *testing.T) {
	// The link value is bypassed to the slots (the callee prologue saves ra
	// from a delay slot in reorganized code).
	r := build(t, DefaultConfig(), `
	main:	jspci r9, fn(r0)
		add r8, r9, r0        ; slot reads the just-written link register
		nop
		halt
	fn:	putw r8
		halt
	`)
	r.run(t, 100)
	want := r.syms["main"] + 3
	if got := r.out.String(); got != formatInt(want) {
		t.Fatalf("output %q, want %d", got, want)
	}
}

func formatInt(v isa.Word) string {
	return strings.TrimSpace(strings.ReplaceAll("", "", "")) + itoa(int(v)) + "\n"
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	if neg {
		return "-" + string(b)
	}
	return string(b)
}

func TestNMIPriorityOverMaskable(t *testing.T) {
	// Both lines high: the NMI must be taken (and recorded in the cause).
	r := build(t, DefaultConfig(), `
	handler:
		movs r20, psw
		halt
	main:	li r10, 515
		mots psw, r10
		nop
		nop
	loop:	b loop
		nop
		nop
	`)
	r.cpu.IntLine = true
	r.cpu.NMILine = true
	for cycles := 0; !r.con.Halted; {
		cycles += r.cpu.Step()
		if cycles > 1000 {
			t.Fatal("no halt")
		}
	}
	psw := isa.PSW(r.cpu.Reg(20))
	if psw&isa.PSWCauseNMI == 0 {
		t.Fatalf("NMI not prioritized: cause %#x", isa.Word(psw&isa.CauseMask))
	}
}

func TestStoreInSquashedSlotSuppressed(t *testing.T) {
	r := build(t, DefaultConfig(), `
	main:	la r1, buf
		addi r2, r0, 99
		bne.sq r2, r2, away    ; never goes → slots squashed
		st r2, 0(r1)           ; must NOT write memory
		st r2, 1(r1)           ; must NOT write memory
		halt
	away:	halt
	buf:	.space 2
	`)
	r.run(t, 100)
	if r.mem.at(r.syms["buf"]) != 0 || r.mem.at(r.syms["buf"]+1) != 0 {
		t.Fatal("squashed stores reached memory")
	}
}

func TestCoprocessorOpInSquashedSlotSuppressed(t *testing.T) {
	// Device operations in squashed slots must not happen (the squash turns
	// them into no-ops before MEM).
	r := build(t, DefaultConfig(), `
	main:	addi r2, r0, 5
		bne.sq r2, r2, away
		putw r2                ; squashed: no output
		putw r2                ; squashed: no output
		putw r2                ; executes
		halt
	away:	halt
	`)
	r.run(t, 100)
	if got := r.out.String(); got != "5\n" {
		t.Fatalf("output %q: squashed coprocessor ops leaked", got)
	}
}

func TestPCChainTracksPipelineWhileRunning(t *testing.T) {
	// With shifting enabled, movs pc0/pc1/pc2 read the PCs of the
	// instructions in MEM/ALU/RF — self-inspection used here to verify the
	// chain tracks the pipe.
	r := build(t, DefaultConfig(), `
	main:	nop
		nop
		movs r1, pc0           ; PC of the instruction now in MEM
		movs r2, pc1
		movs r3, pc2
		halt
	`)
	r.run(t, 100)
	base := r.syms["main"]
	// When "movs r1, pc0" is in ALU (reading), MEM holds main+1, ALU itself
	// main+2, RF main+3 — pc0 is the MEM-stage PC at read time.
	if r.cpu.Reg(1) != base+1 {
		t.Fatalf("pc0 read %d, want %d", r.cpu.Reg(1), base+1)
	}
	if r.cpu.Reg(2) != base+3 || r.cpu.Reg(3) != base+5 {
		// Each successive movs reads one cycle later, with the pipe two
		// instructions further along.
		t.Fatalf("pc1/pc2 reads %d/%d", r.cpu.Reg(2), r.cpu.Reg(3))
	}
}

func TestSnapshotShowsStagesAndSquash(t *testing.T) {
	r := build(t, DefaultConfig(), `
	main:	addi r1, r0, 1
		bne.sq r1, r1, main
		addi r2, r0, 2
		addi r3, r0, 3
		halt
	`)
	var sawSquash bool
	for cycles := 0; !r.con.Halted; {
		s := r.cpu.Snapshot()
		if !strings.Contains(s, "IF:") || !strings.Contains(s, "WB:") {
			t.Fatalf("malformed snapshot %q", s)
		}
		if strings.Contains(s, "×") {
			sawSquash = true
		}
		cycles += r.cpu.Step()
		if cycles > 200 {
			t.Fatal("no halt")
		}
	}
	if !sawSquash {
		t.Fatal("squashed slots never appeared in snapshots")
	}
}

func TestDoubleOverflowOnlyFirstTraps(t *testing.T) {
	// Two consecutive overflowing adds: the first traps; the second is
	// killed and re-executed after the handler skips the first.
	r := build(t, DefaultConfig(), handler(1)+`
	main:	li  r9, 0x7FFFFFFF
		li  r10, 517
		mots psw, r10
		nop
		nop
		add r11, r9, r9        ; overflow #1: trapped, skipped
		add r12, r9, r9        ; overflow #2: trapped, skipped
		addi r13, r0, 5
		halt
	`)
	r.run(t, 1000)
	if r.cpu.Stats.Exceptions != 2 {
		t.Fatalf("exceptions = %d, want 2", r.cpu.Stats.Exceptions)
	}
	if r.cpu.Reg(11) != 0 || r.cpu.Reg(12) != 0 {
		t.Fatal("overflowed results written")
	}
	if r.cpu.Reg(13) != 5 {
		t.Fatal("resumption after double trap failed")
	}
}

func TestIssuedAccounting(t *testing.T) {
	r := build(t, DefaultConfig(), `
	main:	addi r1, r0, 1
		bne.sq r1, r1, main    ; not taken? taken! executes slots
		nop
		nop
		halt
	`)
	r.run(t, 100)
	st := r.cpu.Stats
	if st.Issued() != st.Retired+st.Squashed+st.Killed {
		t.Fatal("Issued identity broken")
	}
	if st.CPI() < 1.0 {
		t.Fatalf("CPI %.2f below 1 with ideal memory", st.CPI())
	}
}

// TestSquashFSMWalk pins the squash FSM walks of paper Figure 3, the walk
// E8 prints: a two-slot squash walks Idle→Sq1→Sq2→Idle, one Tick per
// squashed slot, and a one-slot squash enters the last squash state
// directly, Idle→Sq2→Idle.
func TestSquashFSMWalk(t *testing.T) {
	for _, tc := range []struct {
		slots int
		want  string
	}{{2, "Idle→Sq1→Sq2→Idle"}, {1, "Idle→Sq2→Idle"}} {
		var f SquashFSM
		walk := f.State.String()
		f.Trigger(CauseBranch, tc.slots)
		// Bounded, so an FSM that never returns to Idle fails, not hangs.
		for n := 0; n < 3; n++ {
			walk += "→" + f.State.String()
			if f.State == SqIdle {
				break
			}
			f.Tick()
		}
		if walk != tc.want {
			t.Errorf("%d-slot squash walks %s, want %s", tc.slots, walk, tc.want)
		}
		if f.CyclesBusy != uint64(tc.slots) {
			t.Errorf("%d-slot squash busy %d cycles, want %d", tc.slots, f.CyclesBusy, tc.slots)
		}
	}
}
