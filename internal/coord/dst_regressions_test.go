package coord

// dstRegressions are the shrunk op lists of every failure the simulation
// has found, kept so the fix stays fixed. TestDSTRegressions replays them
// and FuzzCoreOps starts from them.
var dstRegressions = []struct {
	name string
	seed int64
	ops  []dstOp
}{
	// A job with a quarantined cell is requeued by a drain; the next life
	// runs the cell once more (attempts survive a restart, the quarantined
	// state does not) and it succeeds: the cell was done and still on the
	// dead-letter list. The parent coordinator does the same. Fixed by
	// revive.
	{"done-cell-left-on-dead-letter-list", 3, []dstOp{
		{opLease, 53, 21, 7}, {opSubmit, 54, 48, 0}, {opLease, 31, 50, 0}, {opComplete, 59, 53, 0}, {opRestart, 15, 24, 0}}},
	// A job times out with one cell quarantined and another never run: it
	// failed by the quarantine, and the cell that never ran stayed
	// "queued" in a terminal status. The parent coordinator does the same.
	// Fixed in settle: what never ran is cancelled whatever failed the job.
	{"terminal-job-with-a-queued-cell", 3, []dstOp{
		{opStart, 34, 13, 0}, {opSubmit, 22, 11, 0}, {opAdvance, 3, 57, 0}, {opLease, 46, 36, 0}, {opAdvance, 59, 37, 0}}},
}
