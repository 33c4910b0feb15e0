package main

import (
	"runtime"
	"runtime/debug"
	"time"
)

// setupTimer times set-ups in blocks spread over the whole run, and
// setup_s is the median of all of them. One daemon set-up takes about 0.1
// ms, so a single one is timed mostly by whichever collection of earlier
// garbage, or stall of the host, lands on it. Inside a block the collector
// is off, and a full collection runs before each block, so no set-up pays
// for another's garbage; the median drops the set-ups a host stall hit. The
// speed of a shared host drifts by 10–20% over tens of seconds, so set-ups
// timed only at the start of a run would time whatever the host was doing
// then.
type setupTimer struct {
	reps  int                           // set-ups per block
	once  func() (time.Duration, error) // one set-up and its teardown; returns the set-up time only
	times []float64                     // every set-up time, seconds
}

// blocks times n blocks.
func (s *setupTimer) blocks(n int) error {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for range n {
		runtime.GC()
		for range s.reps {
			d, err := s.once()
			if err != nil {
				return err
			}
			s.times = append(s.times, d.Seconds())
		}
	}
	return nil
}

// set records setup_s with the number of set-ups behind it.
func (s *setupTimer) set(rep *report) {
	rep.setN("setup_s", median(s.times), int64(len(s.times)))
}
