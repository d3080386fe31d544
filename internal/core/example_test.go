package core_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/workload"
)

// ExampleOptimalFinishTimes reproduces the paper's §4.3 walkthrough: the
// optimal finish-time bound O₄ of subtask s4 is 1835.
func ExampleOptimalFinishTimes() {
	w := workload.Figure1()
	o := core.OptimalFinishTimes(w.Graph, w.System)
	fmt.Printf("O4 = %.0f\n", o[4])
	// Output:
	// O4 = 1835
}
