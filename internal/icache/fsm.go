package icache

// MissFSM is the instruction-cache-miss finite state machine of paper
// Figure 4. On the chip it is one of only two FSMs (both in the PC unit),
// implemented as a simple shift register: when a fetch misses, the ψ1
// qualified clock is suppressed, the FSM leaves Idle and walks through one
// state per miss-service cycle (two in the chosen design — during which the
// missed word and the following word are fetched), then returns to Idle and
// the pipeline advances again.
type MissState uint8

// Miss FSM states. Miss3 exists only for the 3-cycle-service organization
// the paper rejected by placing the tags in the datapath.
const (
	MissIdle MissState = iota
	Miss1              // first service cycle: missed word returns
	Miss2              // second service cycle: next word returns (double fetch)
	Miss3
)

func (s MissState) String() string {
	switch s {
	case MissIdle:
		return "Idle"
	case Miss1:
		return "Miss1"
	case Miss2:
		return "Miss2"
	case Miss3:
		return "Miss3"
	}
	return "?"
}

// MissFSM tracks the miss-service state and counts cycles in each state.
type MissFSM struct {
	State       MissState
	Transitions uint64
	CyclesBusy  uint64
}

// Step advances the FSM one cycle. missDetected starts service from Idle;
// serviceLen is the configured miss penalty (2 or 3 cycles).
func (f *MissFSM) Step(missDetected bool, serviceLen int) {
	prev := f.State
	switch f.State {
	case MissIdle:
		if missDetected {
			f.State = Miss1
		}
	case Miss1:
		if serviceLen <= 1 {
			f.State = MissIdle
		} else {
			f.State = Miss2
		}
	case Miss2:
		if serviceLen <= 2 {
			f.State = MissIdle
		} else {
			f.State = Miss3
		}
	case Miss3:
		f.State = MissIdle
	}
	if f.State != MissIdle {
		f.CyclesBusy++
	}
	if f.State != prev {
		f.Transitions++
	}
}

// StateTable renders the transition table, used by cmd/mipsx-bench to print
// the Figure 4 reproduction.
func StateTable(serviceLen int) [][2]MissState {
	var f MissFSM
	var table [][2]MissState
	prev := f.State
	f.Step(true, serviceLen)
	table = append(table, [2]MissState{prev, f.State})
	for f.State != MissIdle {
		prev = f.State
		f.Step(false, serviceLen)
		table = append(table, [2]MissState{prev, f.State})
	}
	return table
}
