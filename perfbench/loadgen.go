package main

import "time"

// clock is the time source of the open-loop generator; tests swap in a
// fake one so queueing behaviour is checked without wall-clock sleeps.
type clock interface {
	now() time.Time
	sleepUntil(t time.Time)
}

type realClock struct{}

func (realClock) now() time.Time { return time.Now() }

func (realClock) sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// sample is one open-loop operation.
type sample struct {
	due, sent, done time.Time
	// late is how far the generator itself ran behind: the send time
	// minus the later of the due time and the previous operation's
	// completion. Waiting behind a slow predecessor is the system's
	// latency, not the generator's lateness.
	late time.Duration
	err  error
}

// latency is the operation's time from its due time to its completion,
// so a stall also counts against every operation queued behind it.
func (s sample) latency() time.Duration { return s.done.Sub(s.due) }

// openLoop issues op on a fixed schedule, one operation every interval
// from start, over a single sequential sender (one connection). It is
// open-loop: operation i is due at start+i*interval whatever happened
// before, and when a predecessor overruns, the operations that fell due
// meanwhile are sent back to back as soon as it completes. stop is asked
// before each operation and ends the loop when it returns true.
func openLoop(c clock, start time.Time, interval time.Duration, stop func(i int, due time.Time) bool, op func(i int) error) []sample {
	var out []sample
	var prevDone time.Time
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if stop(i, due) {
			return out
		}
		c.sleepUntil(due)
		s := sample{due: due, sent: c.now()}
		s.err = op(i)
		s.done = c.now()
		ready := due
		if prevDone.After(ready) {
			ready = prevDone
		}
		if s.late = s.sent.Sub(ready); s.late < 0 {
			s.late = 0
		}
		prevDone = s.done
		out = append(out, s)
	}
}
