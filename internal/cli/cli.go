// Package cli holds what every mipsx-* command shares.
package cli

import (
	"fmt"
	"os"
)

// Stdout is a command's standard output, named by the command. A write
// that fails ends the command with exit status 1 and a message naming the
// error: output that never reached its file (a full disk, a descriptor not
// open for writing) must not pass for a success that left a truncated
// report behind.
type Stdout string

// Write writes p to os.Stdout, or ends the command if that fails.
func (cmd Stdout) Write(p []byte) (int, error) {
	n, err := os.Stdout.Write(p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: writing stdout: %v\n", string(cmd), err)
		os.Exit(1)
	}
	return n, nil
}
