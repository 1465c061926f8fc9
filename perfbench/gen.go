package main

import (
	"math"
	"runtime"
	"time"
)

// schedule is an open-loop arrival schedule: op i of a phase is due at
// i/rate seconds after the phase starts. Times are nanoseconds from the
// phase start.
type schedule struct {
	rate float64 // ops per second
}

// due is op i's due time.
func (s schedule) due(i int64) int64 { return int64(float64(i) * 1e9 / s.rate) }

// dueBy is the number of ops due at or before t: the smallest i with
// due(i) > t.
func (s schedule) dueBy(t int64) int64 {
	if t < 0 {
		return 0
	}
	i := int64(float64(t) * s.rate / 1e9)
	for s.due(i) <= t {
		i++
	}
	for i > 0 && s.due(i-1) > t {
		i--
	}
	return i
}

// total is the number of ops due strictly before length.
func (s schedule) total(length int64) int64 { return s.dueBy(length - 1) }

// clock is the generator's time source; tests substitute a fake one.
type clock interface {
	now() int64 // nanoseconds since an arbitrary fixed origin
	sleep(d int64)
}

// wallClock is the monotonic wall clock. A sleep shorter than the host's
// timer granularity returns late (time.Sleep of 10-200 µs takes about 1 ms
// on a small VM), and a generator paced by such sleeps issues its ops in
// bursts whose lateness depends on the host's timer behaviour rather than
// on the program. So the wall clock sleeps only the part of a wait beyond
// spinSlack and spends the rest yielding its processor to other goroutines
// (runtime.Gosched) until the deadline: the generator is one busy goroutine.
type wallClock struct{ origin time.Time }

const spinSlack = 2 * time.Millisecond

func (c wallClock) now() int64 { return int64(time.Since(c.origin)) }

func (c wallClock) sleep(d int64) {
	end := c.now() + d
	if d > int64(spinSlack) {
		time.Sleep(time.Duration(d) - spinSlack)
	}
	for c.now() < end {
		runtime.Gosched()
	}
}

// openLoop issues the ops of s that are due before length, from one
// goroutine. Whenever it wakes it issues every op due by now, in order, so a
// stall (a slow admission call, a late wake) is followed by a catch-up burst
// rather than a shifted or thinned schedule; then it sleeps until the next
// op is due. issue receives the op's index and due time (relative to start,
// the clock reading the phase began at) and returns false to abort the
// phase. The phase also stops once it overruns length by more than slack, so
// a generator that cannot keep up ends with fewer ops issued than scheduled.
// openLoop returns how many ops it issued.
func openLoop(clk clock, start int64, s schedule, length, slack int64, issue func(i, due int64) bool) int64 {
	total := s.total(length)
	var i int64
	for i < total {
		now := clk.now() - start
		if now > length+slack {
			break
		}
		if due := s.due(i); due > now {
			clk.sleep(due - now)
			continue
		}
		if !issue(i, s.due(i)) {
			break
		}
		i++
	}
	return i
}

// offeredShort reports whether a phase issued less than frac of its
// scheduled ops.
func offeredShort(issued, scheduled int64, frac float64) bool {
	return float64(issued) < math.Floor(frac*float64(scheduled))
}
