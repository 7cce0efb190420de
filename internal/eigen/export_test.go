package eigen

import "testing"

// TraceChecks runs traceChecks under the production tolerance for the
// fixture tests of package eigen_test, and returns the stopping column,
// the checks on bases the last row can decide (rowsLastCoupled) and the
// checks on bases it cannot.
func TraceChecks(tb testing.TB, a Op, k int, opts LanczosOptions) (stop, lastRow, full int) {
	tr := traceChecks(tb, a, k, opts, convergenceTol)
	return tr.stop, tr.rowChecks, tr.lastRow + tr.full - tr.rowChecks
}
