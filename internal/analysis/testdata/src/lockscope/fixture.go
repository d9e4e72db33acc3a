// Package lockscope is the lockscope analyzer's fixture: every rule —
// blocking under a held mutex, unbalanced Lock/Unlock paths — has a
// violating and a conforming shape side by side.
package lockscope

import (
	"net"
	"os"
	"sync"
	"time"
)

type guarded struct {
	mu sync.Mutex
	rw sync.RWMutex
	n  int
}

// sleepUnderLock is the classic: the mutex serializes a sleep.
func sleepUnderLock(g *guarded) {
	g.mu.Lock()
	time.Sleep(time.Millisecond) // want "time.Sleep in sleepUnderLock while g.mu is held"
	g.mu.Unlock()
}

// sleepAfterUnlock is the fix: release first.
func sleepAfterUnlock(g *guarded) {
	g.mu.Lock()
	g.n++
	g.mu.Unlock()
	time.Sleep(time.Millisecond)
}

// deferStillHolds: defer satisfies pairing, but the mutex is held until
// return — the sync still happens under it.
func deferStillHolds(g *guarded, f *os.File) {
	g.mu.Lock()
	defer g.mu.Unlock()
	f.Sync() // want "Sync in deferStillHolds while g.mu is held"
}

// channelSendUnderLock parks the goroutine on a full channel with the
// read lock held.
func channelSendUnderLock(g *guarded, ch chan int) {
	g.rw.RLock()
	ch <- g.n // want "channel send in channelSendUnderLock while g.rw is held"
	g.rw.RUnlock()
}

// channelRecvUnderLock blocks on a receive.
func channelRecvUnderLock(g *guarded, ch chan int) {
	g.mu.Lock()
	g.n = <-ch // want "channel receive in channelRecvUnderLock while g.mu is held"
	g.mu.Unlock()
}

// selectUnderLock: a select without default blocks like any receive.
func selectUnderLock(g *guarded, a, b chan int) {
	g.mu.Lock()
	// want "select without default in selectUnderLock while g.mu is held"
	select {
	case g.n = <-a:
	case g.n = <-b:
	}
	g.mu.Unlock()
}

// nonBlockingSelectUnderLock is sanctioned: default makes it a poll.
func nonBlockingSelectUnderLock(g *guarded, ch chan int) {
	g.mu.Lock()
	select {
	case g.n = <-ch:
	default:
	}
	g.mu.Unlock()
}

// connReadUnderLock holds the mutex across socket I/O.
func connReadUnderLock(g *guarded, c net.Conn, buf []byte) {
	g.mu.Lock()
	c.Read(buf) // want "in connReadUnderLock while g.mu is held"
	g.mu.Unlock()
}

// returnWhileHeld leaks the lock on the error path.
func returnWhileHeld(g *guarded, bad bool) int {
	g.mu.Lock()
	if bad {
		return 0 // want "return in returnWhileHeld with g.mu still held"
	}
	n := g.n
	g.mu.Unlock()
	return n
}

// fallthroughLeak never unlocks at all.
func fallthroughLeak(g *guarded) {
	g.mu.Lock() // want "in fallthroughLeak is not released on every path"
	g.n++
}

// branchBalanced unlocks on every path — early exit and fallthrough.
func branchBalanced(g *guarded, bad bool) int {
	g.mu.Lock()
	if bad {
		g.mu.Unlock()
		return 0
	}
	n := g.n
	g.mu.Unlock()
	return n
}

// closureIsItsOwnScope: the literal's discipline is judged alone.
func closureIsItsOwnScope(g *guarded) func() {
	return func() {
		g.mu.Lock()
		g.n++
		g.mu.Unlock()
	}
}

// deferredClosureUnlock: pairing through a deferred literal.
func deferredClosureUnlock(g *guarded) {
	g.mu.Lock()
	defer func() {
		g.n++
		g.mu.Unlock()
	}()
	g.n++
}

// allowedSleep shows a justified suppression (and keeps it from going
// stale).
func allowedSleep(g *guarded) {
	g.mu.Lock()
	//unroller:allow lockscope -- fixture: demonstrates a justified suppression
	time.Sleep(time.Microsecond)
	g.mu.Unlock()
}

// lockedLoopBody locks and unlocks within each iteration.
func lockedLoopBody(g *guarded, ch chan int) {
	for i := 0; i < 3; i++ {
		g.mu.Lock()
		g.n++
		g.mu.Unlock()
		ch <- g.n
	}
}

// breakWhileHeld leaves the loop by a break taken with the mutex held.
func breakWhileHeld(g *guarded) {
	for {
		g.mu.Lock() // want "in breakWhileHeld is not released on every path"
		if g.n > 3 {
			break
		}
		g.n++
		g.mu.Unlock()
	}
}

// breakAfterUnlock is its twin: the break is taken after the Unlock.
func breakAfterUnlock(g *guarded) {
	for {
		g.mu.Lock()
		n := g.n
		g.mu.Unlock()
		if n > 3 {
			break
		}
	}
}

// continueCarriesLock: the continue takes the held mutex into the next
// iteration's sleep, and out of the loop when the condition fails.
func continueCarriesLock(g *guarded, skip func() bool) {
	for i := 0; i < 3; i++ {
		time.Sleep(time.Millisecond) // want "time.Sleep in continueCarriesLock while g.mu is held"
		g.mu.Lock()                  // want "in continueCarriesLock is not released on every path"
		if skip() {
			continue
		}
		g.mu.Unlock()
	}
}

// continueAfterUnlock is its twin: the continue is taken after the
// Unlock.
func continueAfterUnlock(g *guarded, skip func() bool) {
	for i := 0; i < 3; i++ {
		time.Sleep(time.Millisecond)
		g.mu.Lock()
		g.n++
		g.mu.Unlock()
		if skip() {
			continue
		}
	}
}

// goArgUnderLock: a go statement evaluates its arguments in the
// launching goroutine, so the receive blocks under the mutex.
func goArgUnderLock(g *guarded, ch chan int, sink func(int)) {
	g.mu.Lock()
	go sink(<-ch) // want "channel receive in goArgUnderLock while g.mu is held"
	g.mu.Unlock()
}

// goBodyReceives is its twin: the receive is in the goroutine's body,
// which runs without the launcher's mutex.
func goBodyReceives(g *guarded, ch chan int, sink func(int)) {
	g.mu.Lock()
	go func() { sink(<-ch) }()
	g.mu.Unlock()
}

// fallthroughCarriesLock: the first clause falls through into the
// second one's sleep with the mutex held.
func fallthroughCarriesLock(g *guarded, k int) {
	switch k {
	case 0:
		g.mu.Lock()
		defer g.mu.Unlock()
		fallthrough
	case 1:
		time.Sleep(time.Millisecond) // want "time.Sleep in fallthroughCarriesLock while g.mu is held"
	}
}

// fallthroughAfterUnlock is its twin: the clause unlocks before it
// falls through.
func fallthroughAfterUnlock(g *guarded, k int) {
	switch k {
	case 0:
		g.mu.Lock()
		g.n++
		g.mu.Unlock()
		fallthrough
	case 1:
		time.Sleep(time.Millisecond)
	}
}
