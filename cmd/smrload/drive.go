package main

// The load driver: one SMRD2 connection per goroutine with up to a
// window of requests in flight; window 1 is the synchronous client.
// Accounting is keyed by trace record, not by wire request — a shed
// record resubmits under a fresh request ID but keeps its original
// accounting slot, so it counts exactly one op (plus its shed count) no
// matter how many times it bounced (see TestPipelinedShedAccounting).

import (
	"fmt"
	"time"

	"smrseek/internal/server"
	"smrseek/internal/trace"
)

// recSlot is one trace record's accounting identity across however many
// submissions it takes to land.
type recSlot struct {
	rec   trace.Record
	start time.Time // first submission; latency covers retries
	sheds int64
}

// drive replays the whole trace in order on one connection. Shed
// records are resubmitted (maxRetries per record), after a 1 ms pause
// when nothing else is in flight. A lost connection (server.IsConnLost)
// is redialed: drain the broken window, dial the address again, resubmit
// what never landed. Any other error ends the run.
func drive(addr, vol string, pre *trace.Preloaded, agg *tally, interval time.Duration, maxRetries, window int) error {
	ac, err := server.DialAsync(addr, window)
	if err != nil {
		return err
	}
	defer func() { ac.Close() }()

	var (
		pending  = make(map[uint64]*recSlot) // request ID -> accounting slot
		done     = make(chan *server.Call, ac.Window())
		retryQ   []*recSlot
		inflight int
		shed     bool // a shed record waits in retryQ
		redial   bool
	)

	// submit sends one record. A transport failure queues it to wait out
	// the redial; any other submit error is fatal.
	submit := func(sl *recSlot) error {
		call, err := ac.SubmitStep(vol, sl.rec, done)
		if err != nil {
			if !server.IsConnLost(err) {
				return fmt.Errorf("volume %s: %w", vol, err)
			}
			retryQ = append(retryQ, sl)
			redial = true
			return nil
		}
		pending[call.ID] = sl
		inflight++
		return nil
	}

	// reap classifies one completion: success is observed (exactly once
	// per record), sheds and lost connections re-queue the same slot,
	// anything else is fatal.
	reap := func(call *server.Call) error {
		sl := pending[call.ID]
		delete(pending, call.ID)
		inflight--
		if sl == nil {
			return fmt.Errorf("volume %s: completion for unknown request %d", vol, call.ID)
		}
		_, err := call.Result()
		switch {
		case err == nil:
			agg.observe(time.Since(sl.start), sl.sheds)
		case server.IsOverloaded(err):
			if sl.sheds++; sl.sheds > int64(maxRetries) {
				return fmt.Errorf("volume %s: record shed %d times, giving up", vol, maxRetries)
			}
			retryQ = append(retryQ, sl)
			shed = true
		case server.IsConnLost(err):
			retryQ = append(retryQ, sl)
			redial = true
		default:
			return fmt.Errorf("volume %s: %w", vol, err)
		}
		return nil
	}

	reconnect := func() error {
		ac.Close()
		var lastErr error
		for attempt := 0; attempt < 8; attempt++ {
			if attempt > 0 {
				time.Sleep(time.Duration(attempt) * 50 * time.Millisecond)
			}
			nac, err := server.DialAsync(addr, window)
			if err != nil {
				lastErr = err
				continue
			}
			ac = nac
			done = make(chan *server.Call, ac.Window())
			return nil
		}
		return fmt.Errorf("volume %s: redial exhausted: %w", vol, lastErr)
	}

	r := pre.NewReader()
	var next time.Time
	if interval > 0 {
		next = time.Now()
	}
	rec, more := r.Next()
	for more || inflight > 0 || len(retryQ) > 0 {
		if redial && inflight == 0 {
			if err := reconnect(); err != nil {
				return err
			}
			redial = false
		}
		// Back off before resending a shed record into an idle
		// connection: -max-retries then spans at least that many
		// milliseconds, not a burst of immediate rejections.
		if shed && inflight == 0 {
			time.Sleep(time.Millisecond)
		}
		shed = false
		// Fill the window: retries first (they are oldest), then fresh
		// records, paced to the target rate. A failed submit sets redial,
		// which ends the fill.
		for !redial && inflight < ac.Window() {
			var sl *recSlot
			if len(retryQ) > 0 {
				sl, retryQ = retryQ[0], retryQ[1:]
			} else if more {
				if interval > 0 {
					if d := time.Until(next); d > 0 {
						time.Sleep(d)
					}
					next = next.Add(interval)
				}
				sl = &recSlot{rec: rec, start: time.Now()}
				rec, more = r.Next()
			} else {
				break
			}
			if err := submit(sl); err != nil {
				return err
			}
		}
		if inflight == 0 {
			continue
		}
		// Wait for one completion, then take whatever else is ready.
		if err := reap(<-done); err != nil {
			return err
		}
	drain:
		for inflight > 0 {
			select {
			case call := <-done:
				if err := reap(call); err != nil {
					return err
				}
			default:
				break drain
			}
		}
	}
	return r.Err()
}
