package pipeline

import (
	"fmt"
	"strings"
)

// Snapshot renders the pipeline's occupancy at the current cycle boundary:
// the instruction each stage will process this cycle, with markers for
// squashed (×) and exception-killed (✝) slots. IF shows the fetch PC.
func (c *CPU) Snapshot() string {
	var b strings.Builder
	fmt.Fprintf(&b, "IF:%06x", c.pc)
	stage := func(name string, s *slot) {
		b.WriteString("  " + name + ":")
		if !s.valid {
			b.WriteString("--------")
			return
		}
		mark := ""
		if s.sqNoop {
			mark = "×"
		} else if s.excNoop {
			mark = "✝"
		}
		fmt.Fprintf(&b, "%06x%s %s", s.pc, mark, s.in)
	}
	stage("RF", c.rf())
	stage("ALU", c.alu())
	stage("MEM", c.mem())
	stage("WB", c.wb())
	return b.String()
}
