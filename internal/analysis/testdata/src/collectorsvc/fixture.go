// Package collectorsvc is the deadline analyzer's fixture. The package
// basename puts it under the deadline-armed I/O contract, the same
// scoping trick the determinism fixture uses.
package collectorsvc

import (
	"bufio"
	"net"
	"time"
)

// readUnarmed parks forever on a silent peer.
func readUnarmed(c net.Conn, buf []byte) {
	c.Read(buf) // want "conn read not dominated by SetReadDeadline"
}

// readArmed is the contract: arm, then read.
func readArmed(c net.Conn, buf []byte) {
	c.SetReadDeadline(time.Now().Add(time.Second))
	c.Read(buf)
}

// writeUnarmed parks forever on a peer that stopped reading.
func writeUnarmed(c net.Conn, buf []byte) {
	c.Write(buf) // want "conn write not dominated by SetWriteDeadline"
}

// setDeadlineArmsBoth covers read and write with one arm.
func setDeadlineArmsBoth(c net.Conn, buf []byte) {
	c.SetDeadline(time.Now().Add(time.Second))
	c.Read(buf)
	c.Write(buf)
}

// bufReaderUnarmed: the socket hides behind the bufio wrapper.
func bufReaderUnarmed(c net.Conn) {
	br := bufio.NewReader(c)
	br.ReadByte() // want "read from conn-backed bufio.Reader br not dominated by SetReadDeadline"
}

// bufWriterFlushUnarmed: Flush is the write that touches the socket.
func bufWriterFlushUnarmed(c net.Conn, buf []byte) {
	bw := bufio.NewWriterSize(c, 1<<10)
	c.SetWriteDeadline(time.Now().Add(time.Second))
	bw.Write(buf)
	bw.Flush()
}

// helperGetsReader: handing the wrapper to a helper is the helper doing
// our I/O.
func helperGetsReader(c net.Conn) {
	br := bufio.NewReader(c)
	decodeFrom(br) // want "call passes conn-backed bufio.Reader br without SetReadDeadline"
}

func decodeFrom(br *bufio.Reader) { br.Peek(1) }

// armInOneBranchOnly: the else path reaches the read unarmed, so the
// must-merge reports it.
func armInOneBranchOnly(c net.Conn, buf []byte, fast bool) {
	if fast {
		c.SetReadDeadline(time.Now().Add(time.Second))
	} else {
		bufferSize(buf)
	}
	c.Read(buf) // want "conn read not dominated by SetReadDeadline"
}

func bufferSize(buf []byte) int { return len(buf) }

// armInBothBranches survives the merge.
func armInBothBranches(c net.Conn, buf []byte, fast bool) {
	if fast {
		c.SetReadDeadline(time.Now().Add(time.Millisecond))
	} else {
		c.SetReadDeadline(time.Now().Add(time.Second))
	}
	c.Read(buf)
}

// reArmPerIteration is the server's frame loop shape: the arm is inside
// the loop, before the read of the same iteration.
func reArmPerIteration(c net.Conn, buf []byte) {
	for {
		c.SetReadDeadline(time.Now().Add(time.Second))
		if n, err := c.Read(buf); n == 0 && err != nil {
			return
		}
	}
}

// closureStartsUnarmed: deadlines are absolute times, so a closure
// cannot inherit its creator's arm — it may run much later.
func closureStartsUnarmed(c net.Conn, buf []byte) func() {
	c.SetReadDeadline(time.Now().Add(time.Second))
	return func() {
		c.Read(buf) // want "conn read not dominated by SetReadDeadline"
	}
}

// closureArmsItself is the readFrame-closure shape from the server.
func closureArmsItself(c net.Conn, buf []byte) func() {
	return func() {
		c.SetReadDeadline(time.Now().Add(time.Second))
		c.Read(buf)
	}
}

// armBeforeLoopOnly: a deadline is an absolute time, so an arm made
// before the loop covers its first iteration only — the read of every
// later iteration is unarmed.
func armBeforeLoopOnly(c net.Conn, buf []byte) {
	c.SetReadDeadline(time.Now().Add(time.Second))
	for {
		if _, err := c.Read(buf); err != nil { // want "conn read not dominated by SetReadDeadline"
			return
		}
	}
}

// armBeforeRangeOnly is the same rule for a range loop.
func armBeforeRangeOnly(c net.Conn, bufs [][]byte) {
	c.SetWriteDeadline(time.Now().Add(time.Second))
	for _, b := range bufs {
		c.Write(b) // want "conn write not dominated by SetWriteDeadline"
	}
}

// reArmAtEndOfBody: the pre-loop arm covers the first read, and the
// body's own trailing arm covers every later one.
func reArmAtEndOfBody(c net.Conn, buf []byte) {
	c.SetReadDeadline(time.Now().Add(time.Second))
	for {
		if _, err := c.Read(buf); err != nil {
			return
		}
		c.SetReadDeadline(time.Now().Add(time.Second))
	}
}

// continueSkipsReArm: the continue path reaches the next iteration
// without the trailing arm.
func continueSkipsReArm(c net.Conn, buf []byte, skip func() bool) {
	c.SetReadDeadline(time.Now().Add(time.Second))
	for {
		if _, err := c.Read(buf); err != nil { // want "conn read not dominated by SetReadDeadline"
			return
		}
		if skip() {
			continue
		}
		c.SetReadDeadline(time.Now().Add(time.Second))
	}
}

// switchNoDefaultArms: with no default, the path where no clause runs
// reaches the read unarmed.
func switchNoDefaultArms(c net.Conn, buf []byte, k int) {
	switch k {
	case 0:
		c.SetReadDeadline(time.Now().Add(time.Second))
	}
	c.Read(buf) // want "conn read not dominated by SetReadDeadline"
}

// switchEveryClauseArms is its twin: a default, and every clause arms.
func switchEveryClauseArms(c net.Conn, buf []byte, k int) {
	switch k {
	case 0:
		c.SetReadDeadline(time.Now().Add(time.Millisecond))
	default:
		c.SetReadDeadline(time.Now().Add(time.Second))
	}
	c.Read(buf)
}

// breakBeforeArm: the break leaves the switch before the clause arms.
func breakBeforeArm(c net.Conn, buf []byte, k int, skip bool) {
	switch k {
	case 0:
		if skip {
			break
		}
		c.SetReadDeadline(time.Now().Add(time.Millisecond))
	default:
		c.SetReadDeadline(time.Now().Add(time.Second))
	}
	c.Read(buf) // want "conn read not dominated by SetReadDeadline"
}

// breakAfterArm is its twin: the clause arms before it can break.
func breakAfterArm(c net.Conn, buf []byte, k int, skip bool) {
	switch k {
	case 0:
		c.SetReadDeadline(time.Now().Add(time.Millisecond))
		if skip {
			break
		}
		bufferSize(buf)
	default:
		c.SetReadDeadline(time.Now().Add(time.Second))
	}
	c.Read(buf)
}

// continueOuterSkipsArm: the labeled continue reaches the next read
// without the outer body's trailing arm.
func continueOuterSkipsArm(c net.Conn, buf []byte, frames [][]byte) {
	c.SetReadDeadline(time.Now().Add(time.Second))
outer:
	for {
		if _, err := c.Read(buf); err != nil { // want "conn read not dominated by SetReadDeadline"
			return
		}
		for _, f := range frames {
			if len(f) == 0 {
				continue outer
			}
		}
		c.SetReadDeadline(time.Now().Add(time.Second))
	}
}

// continueOuterArms is its twin: the labeled continue arms first.
func continueOuterArms(c net.Conn, buf []byte, frames [][]byte) {
	c.SetReadDeadline(time.Now().Add(time.Second))
outer:
	for {
		if _, err := c.Read(buf); err != nil {
			return
		}
		for _, f := range frames {
			if len(f) == 0 {
				c.SetReadDeadline(time.Now().Add(time.Second))
				continue outer
			}
		}
		c.SetReadDeadline(time.Now().Add(time.Second))
	}
}
