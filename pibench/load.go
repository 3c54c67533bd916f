package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// loopStats is what one open-loop lane measured. An operation sent on
// time is timed from its actual send, so the generator's own timer
// overshoot (Go rounds sub-millisecond sleeps up to about 1 ms) is not
// charged to the program. An operation sent late because every worker
// was still busy is timed from its scheduled send, so a stall also
// charges the operations queued behind it.
type loopStats struct {
	lat        samples // ms, (scheduled send if queued, else actual send) -> done
	lag        samples // ms, scheduled send -> actual send
	overshoot  samples // ms, timer wake-up delay of the on-time sends (not charged)
	queued     int     // sends timed from their scheduled time
	backlogMax int     // operations due but not yet sent, at most
	failed     int
}

// grows flags a lane whose generator fell steadily behind: the last
// quarter's median lag is well above the first quarter's.
func (s loopStats) grows() bool {
	q := len(s.lag) / 4
	if q < 4 {
		return false
	}
	first, last := s.lag[:q].median(), s.lag[len(s.lag)-q:].median()
	return last > 5 && last > 2*first
}

// merge appends another run of the same lane.
func (s *loopStats) merge(o loopStats) {
	s.lat = append(s.lat, o.lat...)
	s.lag = append(s.lag, o.lag...)
	s.overshoot = append(s.overshoot, o.overshoot...)
	s.queued += o.queued
	s.backlogMax = max(s.backlogMax, o.backlogMax)
	s.failed += o.failed
}

// describe summarises the lane's timing for the report.
func (s loopStats) describe() string {
	return fmt.Sprintf("%d sends, %d queued (timed from the scheduled send), on-time timer overshoot mean %.3f ms (not charged), lag p99 %.3f ms, backlog max %d, grows %v",
		len(s.lag), s.queued, s.overshoot.mean(), s.lag.quantile(0.99), s.backlogMax, s.grows())
}

// runOpen sends n operations at a fixed interval with at most workers
// in flight. do receives the operation index and the wait charged to it:
// how late it was sent if it queued, else 0.
func runOpen(n int, interval time.Duration, workers int, do func(i int, wait time.Duration) error) loopStats {
	var (
		mu   sync.Mutex
		st   loopStats
		next atomic.Int64
		wg   sync.WaitGroup
	)
	st.lat = make(samples, n)
	st.lag = make(samples, n)
	start := time.Now().Add(5 * time.Millisecond)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				onTime := false
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
					onTime = true
				}
				sent := time.Now()
				from := due
				if onTime {
					from = sent
				}
				backlog := int(sent.Sub(start)/interval) + 1 - int(next.Load())
				err := do(i, sent.Sub(from))
				done := time.Now()
				mu.Lock()
				st.lat[i] = ms(done.Sub(from))
				st.lag[i] = ms(sent.Sub(due))
				if onTime {
					st.overshoot = append(st.overshoot, ms(sent.Sub(due)))
				} else {
					st.queued++
				}
				if backlog > st.backlogMax {
					st.backlogMax = backlog
				}
				if err != nil {
					st.failed++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return st
}

// runClosed keeps workers busy back to back until the deadline; do
// receives a global operation index. It returns completed and failed
// operations and the elapsed time.
func runClosed(d time.Duration, workers int, do func(i int) error) (completed, failed int, elapsed time.Duration) {
	var (
		next    atomic.Int64
		nDone   atomic.Int64
		nFailed atomic.Int64
		wg      sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(d)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if err := do(int(next.Add(1) - 1)); err != nil {
					nFailed.Add(1)
				} else {
					nDone.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return int(nDone.Load()), int(nFailed.Load()), time.Since(start)
}

// rateInterval is the send interval of a fixed rate in operations per
// second.
func rateInterval(perSecond float64) time.Duration {
	return time.Duration(float64(time.Second) / perSecond)
}
