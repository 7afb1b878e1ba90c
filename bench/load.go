package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"smrseek/internal/core"
	"smrseek/internal/server"
	"smrseek/internal/trace"
)

// maxShedRetries is how often one record may be shed ("overloaded") and
// resubmitted before it counts as failed.
const maxShedRetries = 1000

// loadStats is what one connection's closed-loop replay observed.
type loadStats struct {
	LatNs     []int64 // caller-observed time per record, first submit to OK, in trace order of completion
	Attempted int64
	Failed    int64
	Sheds     int64 // overloaded statuses seen (each one a resubmission)
	Timeouts  int64 // timeout statuses seen (each one a failed record)
	// TailNs is the 99th percentile of each part of this connection's
	// samples (see sliceTails).
	TailNs []float64
}

// replay drives recs to one volume over one pipelined connection with at
// most window requests in flight, each record timed from its first
// submission to its OK reply. The loop is closed: a new record is sent
// only when a reply freed a window seat. Requests are sent in trace
// order, so the volume executes exactly the trace. A shed record is
// resubmitted under its original start time; any other non-OK status
// fails the record. Every OK completion is counted into completed.
func replay(addr, vol string, recs []trace.Record, window int, completed *atomic.Int64) (loadStats, error) {
	ac, err := server.DialAsync(addr, window)
	if err != nil {
		return loadStats{}, err
	}
	defer ac.Close()
	if ac.Window() < window {
		return loadStats{}, fmt.Errorf("volume %s: server granted window %d, want %d", vol, ac.Window(), window)
	}

	type slot struct {
		rec   trace.Record
		start time.Time
		sheds int
	}
	var (
		st       = loadStats{LatNs: make([]int64, 0, len(recs)), Attempted: int64(len(recs))}
		pending  = make(map[uint64]slot, window)
		done     = make(chan *server.Call, window)
		retry    []slot
		inflight int
		next     int
	)
	submit := func(s slot) error {
		call, err := ac.SubmitStep(vol, s.rec, done)
		if err != nil {
			return fmt.Errorf("volume %s: submit: %w", vol, err)
		}
		pending[call.ID] = s
		inflight++
		return nil
	}
	reap := func(call *server.Call) error {
		s, ok := pending[call.ID]
		if !ok {
			return fmt.Errorf("volume %s: completion for unknown request %d", vol, call.ID)
		}
		delete(pending, call.ID)
		inflight--
		_, err := call.Result()
		var se *server.StatusError
		switch {
		case err == nil:
			st.LatNs = append(st.LatNs, int64(time.Since(s.start)))
			completed.Add(1)
		case server.IsOverloaded(err):
			st.Sheds++
			if s.sheds++; s.sheds > maxShedRetries {
				st.Failed++
			} else {
				retry = append(retry, s)
			}
		case errors.As(err, &se):
			if se.Status == server.StatusTimeout {
				st.Timeouts++
			}
			st.Failed++
		default:
			// The connection broke: nothing further can complete.
			return fmt.Errorf("volume %s: %w", vol, err)
		}
		return nil
	}
	for next < len(recs) || inflight > 0 || len(retry) > 0 {
		for inflight < window && (len(retry) > 0 || next < len(recs)) {
			var s slot
			if len(retry) > 0 {
				s, retry = retry[0], retry[1:]
			} else {
				s = slot{rec: recs[next], start: time.Now()}
				next++
			}
			if err := submit(s); err != nil {
				return st, err
			}
		}
		if err := reap(<-done); err != nil {
			return st, err
		}
	}
	st.TailNs = sliceTails(st.LatNs)
	return st, nil
}

// replayAll runs one replay per volume concurrently — one connection per
// volume, so every volume sees its trace in order — and returns the
// per-connection stats and the wall time from the common start to the
// last completion.
func replayAll(addr string, vols []string, recs []trace.Record, window int, completed *atomic.Int64) ([]loadStats, time.Duration, error) {
	stats := make([]loadStats, len(vols))
	errs := make([]error, len(vols))
	var wg sync.WaitGroup
	start := time.Now()
	for i, vol := range vols {
		wg.Add(1)
		go func(i int, vol string) {
			defer wg.Done()
			stats[i], errs[i] = replay(addr, vol, recs, window, completed)
		}(i, vol)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return stats, wall, err
		}
	}
	return stats, wall, nil
}

// merge folds per-connection stats into one.
func merge(stats []loadStats) loadStats {
	var m loadStats
	for _, s := range stats {
		m.LatNs = append(m.LatNs, s.LatNs...)
		m.Attempted += s.Attempted
		m.Failed += s.Failed
		m.Sheds += s.Sheds
		m.Timeouts += s.Timeouts
		m.TailNs = append(m.TailNs, s.TailNs...)
	}
	return m
}

// statVolume fetches one volume's live statistics over a fresh
// synchronous connection.
func statVolume(addr, vol string) (core.Stats, error) {
	c, err := server.Dial(addr)
	if err != nil {
		return core.Stats{}, err
	}
	defer c.Close()
	return c.Stat(vol)
}
