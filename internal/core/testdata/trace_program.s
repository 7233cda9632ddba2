; The golden-trace workload (trace_golden.json): a 5-iteration loop with a
; store and a load, so the trace carries pipe spans, a branch squash, Icache
; misses and Ecache traffic.
main:	addi r1, r0, 0
	addi r2, r0, 5
	addi r3, r0, 4096
loop:	st   r1, 0(r3)
	ld   r4, 0(r3)
	addi r1, r1, 1
	bne.sq r1, r2, loop
	nop
	nop
	putw r4
	halt
