package pipeline

// SqState is a state of the squashing finite state machine of paper
// Figure 3. On the chip this FSM (one of the two in the PC unit, the other
// being the Icache miss FSM) no-ops the instructions in the IF and RF
// pipestages. It serves double duty: exceptions use it to kill the
// instructions that must not complete, and squashing branches reuse the same
// machinery — per the paper, adding branch squashing cost only "a single
// extra input to the squashing finite state machine that is used to handle
// exceptions".
type SqState uint8

// Squash FSM states. The machine walks Idle → Sq1 → Sq2 → Idle for a
// two-slot squash (branch mispredict or exception entry); a one-slot
// squash enters the last squash state directly, Idle → Sq2 → Idle.
const (
	SqIdle SqState = iota
	Sq1
	Sq2
)

func (s SqState) String() string {
	switch s {
	case SqIdle:
		return "Idle"
	case Sq1:
		return "Sq1"
	case Sq2:
		return "Sq2"
	}
	return "?"
}

// SquashCause distinguishes the FSM's two inputs.
type SquashCause uint8

// The two inputs: exception squash and branch squash (the single extra
// input branch squashing added).
const (
	CauseException SquashCause = iota
	CauseBranch
)

// SquashFSM tracks squash activity. A walk (State not SqIdle) spans the
// cycles during which squashed instructions are still upstream of the ALU,
// which is exactly the window in which attaching an interrupt would capture
// a squashed instruction in the PC chain without the branch that squashed
// it.
type SquashFSM struct {
	State       SqState
	Events      [2]uint64 // indexed by SquashCause
	CyclesBusy  uint64
	Transitions uint64
}

// Trigger starts a squash walk of the given length (the number of delay
// slots being squashed, 1 or 2).
func (f *SquashFSM) Trigger(cause SquashCause, slots int) {
	f.Events[cause]++
	if slots >= 2 {
		f.State = Sq1 // will pass through Sq2
	} else {
		f.State = Sq2 // single remaining squash cycle
	}
	f.Transitions++
}

// Tick advances the FSM one cycle.
func (f *SquashFSM) Tick() {
	switch f.State {
	case Sq1:
		f.State = Sq2
		f.Transitions++
		f.CyclesBusy++
	case Sq2:
		f.State = SqIdle
		f.Transitions++
		f.CyclesBusy++
	}
}
