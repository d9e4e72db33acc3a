// Package commitorder is the commitorder analyzer's fixture: commit()
// and ack() stand in for (*Journal).Commit and writeAck, and each
// function below is one CFG shape of the commit-before-ack rule.
package commitorder

var journaled bool

// commit is the durability step.
//
//unroller:commitpoint
func commit() {}

// ack is the client-visible acknowledgement.
//
//unroller:ackpoint
func ack() {}

// ackWithoutCommit is the base violation.
func ackWithoutCommit() {
	ack() // want "ack write is not dominated by a journal commit"
}

// commitThenAck is the contract.
func commitThenAck() {
	commit()
	ack()
}

// guardedCommitArm is the `if s.journal != nil { s.journal.Commit() }`
// idiom: the guard decides whether there is anything to commit, so the
// fall-through path counts as committed too.
func guardedCommitArm() {
	if journaled {
		commit()
	}
	ack()
}

// explicitElseMustCommit: with an explicit else that does other work,
// the arm is no longer a guard — the else path reaches the ack
// uncommitted.
func explicitElseMustCommit(n int) {
	if journaled {
		commit()
	} else {
		n++
	}
	ack() // want "ack write is not dominated by a journal commit"
}

// earlyReturnPath: the uncommitted path returns before the ack.
func earlyReturnPath(ok bool) {
	if !ok {
		return
	}
	commit()
	ack()
}

// ackConsumesCommit: one commit does not license a second ack.
func ackConsumesCommit() {
	commit()
	ack()
	ack() // want "ack write is not dominated by a journal commit"
}

// perIterationCommit is the server's batch loop shape.
func perIterationCommit() {
	for i := 0; i < 3; i++ {
		commit()
		ack()
	}
}

// loopAckNoCommit re-acks every iteration without re-committing.
func loopAckNoCommit() {
	for i := 0; i < 3; i++ {
		ack() // want "ack write is not dominated by a journal commit"
	}
}

// closureStartsUncommitted: a literal is its own scope — the analyzer
// cannot order the creator's commit against the closure's eventual run.
func closureStartsUncommitted() func() {
	commit()
	return func() {
		ack() // want "ack write is not dominated by a journal commit"
	}
}

// flushAckShape mirrors the server's flushAck closure end to end.
func flushAckShape() func() bool {
	return func() bool {
		if journaled {
			commit()
		}
		ack()
		return true
	}
}

// switchAllArmsCommit: every case commits before the shared ack.
func switchAllArmsCommit(k int) {
	switch k {
	case 0:
		commit()
	default:
		commit()
	}
	ack()
}

// switchOneArmMisses: the zero case reaches the ack uncommitted.
func switchOneArmMisses(k int) {
	switch k {
	case 0:
	default:
		commit()
	}
	ack() // want "ack write is not dominated by a journal commit"
}

// commitBeforeLoop: one commit cannot license the ack of every
// iteration — the first ack consumes it.
func commitBeforeLoop() {
	commit()
	for i := 0; i < 3; i++ {
		ack() // want "ack write is not dominated by a journal commit"
	}
}

// commitEachBeforeAck is its twin: every iteration commits its own ack.
func commitEachBeforeAck(batches []int) {
	commit()
	for range batches {
		commit()
		ack()
	}
}

// switchNoDefaultCommits: with no default, the path where no clause
// runs reaches the ack uncommitted.
func switchNoDefaultCommits(k int) {
	switch k {
	case 0:
		commit()
	}
	ack() // want "ack write is not dominated by a journal commit"
}

// typeSwitchEveryClauseCommits is its twin: a default, and every clause
// commits.
func typeSwitchEveryClauseCommits(v any) {
	switch v.(type) {
	case int:
		commit()
	default:
		commit()
	}
	ack()
}

// breakBeforeCommit: the break leaves the switch before the clause's
// commit.
func breakBeforeCommit(k int, skip bool) {
	switch k {
	case 0:
		if skip {
			break
		}
		commit()
	default:
		commit()
	}
	ack() // want "ack write is not dominated by a journal commit"
}

// breakAfterCommit is its twin: the clause commits before it can break.
func breakAfterCommit(k, n int, skip bool) {
	switch k {
	case 0:
		commit()
		if skip {
			break
		}
		n++
	default:
		commit()
	}
	ack()
}
