package eigen

import "testing"

// TraceChecks runs traceChecks under the production tolerance for the
// fixture tests of package eigen_test, and returns the stopping column
// and the number of convergence checks.
func TraceChecks(tb testing.TB, a Op, k int, opts LanczosOptions) (stop, checks int) {
	tr := traceChecks(tb, a, k, opts, convergenceTol)
	return tr.stop, tr.lastRow + tr.full
}
