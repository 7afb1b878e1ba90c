package server

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"smrseek/internal/core"
	"smrseek/internal/trace"
)

// Set is a replica-aware client over a fixed set of node addresses. It
// routes every operation to the current primary; when the primary dies
// (connection error) or demotes (StatusNotPrimary), it re-probes the
// set, promotes the most-caught-up follower if no primary answers, and
// resends the operation — at-least-once semantics: an operation whose
// response was lost in flight may have executed on the old primary too.
//
// Like Client, a Set is not safe for concurrent use; open one per
// goroutine.
type Set struct {
	ctx   context.Context
	addrs []string
	c     *Client // connection to the current primary
	cur   string  // current primary's address
	epoch uint64  // highest fencing epoch observed

	// FailoverAttempts bounds how many probe-the-set rounds one
	// operation may spend before its error surfaces.
	FailoverAttempts int
	// ProbeTimeout bounds dialing one candidate during a probe round.
	ProbeTimeout time.Duration

	failovers int64
}

// DialSet probes addrs, connects to the serving primary (the one with
// the highest fencing epoch), and returns a Set routing to it. If no
// node claims the primary role, the most-caught-up follower is promoted
// — the same path a mid-run failover takes.
func DialSet(ctx context.Context, addrs []string) (*Set, error) {
	if len(addrs) == 0 {
		return nil, errors.New("smrd: DialSet needs at least one address")
	}
	s := &Set{
		ctx:              ctx,
		addrs:            append([]string(nil), addrs...),
		FailoverAttempts: 8,
		ProbeTimeout:     2 * time.Second,
	}
	if err := s.failover(); err != nil {
		return nil, err
	}
	return s, nil
}

// Primary returns the address of the node currently serving as primary.
func (s *Set) Primary() string { return s.cur }

// Reroute re-probes the set and re-elects (promoting a follower if
// needed) the serving primary, for callers that hold their own data
// connection — smrload's load driver dials an AsyncClient at Primary()
// and calls Reroute when that connection dies or demotes.
// The caller owns failover accounting; Failovers is not incremented.
func (s *Set) Reroute() error { return s.failover() }

// Epoch returns the highest fencing epoch the set has observed.
func (s *Set) Epoch() uint64 { return s.epoch }

// Failovers returns how many times the set has re-routed to a new
// primary after the old one died or demoted.
func (s *Set) Failovers() int64 { return s.failovers }

// Close closes the current primary connection.
func (s *Set) Close() error {
	if s.c != nil {
		return s.c.Close()
	}
	return nil
}

// do runs op against the current primary, failing over and resending on
// a dead or demoted node. At-least-once: an op whose response was lost
// in flight may have executed on the old primary too.
func (s *Set) do(op func(c *Client) error) error {
	err := op(s.c)
	if !NeedsFailover(err) {
		return err
	}
	for attempt := 0; attempt < s.FailoverAttempts; attempt++ {
		if s.ctx.Err() != nil {
			return err
		}
		if ferr := s.failover(); ferr != nil {
			continue
		}
		err = op(s.c)
		if err == nil {
			s.failovers++
			return nil
		}
		if !NeedsFailover(err) {
			return err
		}
	}
	return err
}

// candidate is one probed node.
type candidate struct {
	addr string
	c    *Client
	info RoleInfo
}

// failover probes every address, closes the current connection, and
// routes to the best candidate: the primary with the highest epoch if
// one answers, else the most-caught-up follower, which it promotes.
func (s *Set) failover() error {
	if s.c != nil {
		s.c.Close()
		s.c = nil
	}
	var cands []candidate
	defer func() {
		for _, cd := range cands {
			if cd.c != nil {
				cd.c.Close()
			}
		}
	}()
	for _, addr := range s.addrs {
		ctx, cancel := context.WithTimeout(s.ctx, s.ProbeTimeout)
		c, err := DialContext(ctx, addr)
		cancel()
		if err != nil {
			continue
		}
		info, err := c.Role()
		if err != nil {
			c.Close()
			continue
		}
		cands = append(cands, candidate{addr: addr, c: c, info: info})
	}
	if len(cands) == 0 {
		return fmt.Errorf("smrd: no node of %v reachable", s.addrs)
	}

	// A live primary with the highest epoch wins outright.
	best := -1
	for i, cd := range cands {
		if cd.info.Role != "primary" {
			continue
		}
		if best < 0 || moreCaughtUp(cd.info, cands[best].info) {
			best = i
		}
	}
	if best < 0 {
		// No primary: promote the most-caught-up follower.
		for i, cd := range cands {
			if cd.info.Role != "follower" {
				continue
			}
			if best < 0 || moreCaughtUp(cd.info, cands[best].info) {
				best = i
			}
		}
		if best < 0 {
			return fmt.Errorf("smrd: no primary and no promotable follower among %v", s.addrs)
		}
		info, err := cands[best].c.Promote()
		if err != nil {
			return fmt.Errorf("smrd: promote %s: %w", cands[best].addr, err)
		}
		cands[best].info = info
	}
	if e := cands[best].info.Epoch; e < s.epoch {
		return fmt.Errorf("smrd: best candidate %s at stale epoch %d (< %d seen)",
			cands[best].addr, e, s.epoch)
	}
	chosen := cands[best]
	cands[best].c = nil // keep it out of the deferred close
	s.c = chosen.c
	s.cur = chosen.addr
	s.epoch = chosen.info.Epoch
	return nil
}

// moreCaughtUp reports whether node a is more caught-up than node b:
// higher epoch first, then per-volume journal positions compared over
// the union of volume names (a volume one side lacks counts as the zero
// position).
func moreCaughtUp(a, b RoleInfo) bool {
	if a.Epoch != b.Epoch {
		return a.Epoch > b.Epoch
	}
	names := map[string]bool{}
	for n := range a.Volumes {
		names[n] = true
	}
	for n := range b.Volumes {
		names[n] = true
	}
	ordered := make([]string, 0, len(names))
	for n := range names {
		ordered = append(ordered, n)
	}
	sort.Strings(ordered)
	ahead := 0
	for _, n := range ordered {
		pa, pb := a.Volumes[n], b.Volumes[n]
		if pb.Less(pa) {
			ahead++
		} else if pa.Less(pb) {
			ahead--
		}
	}
	return ahead > 0
}

// Step routes one trace record to the primary, failing over on a dead
// or demoted node. Returns a read's fragment count (0 for writes).
func (s *Set) Step(vol string, rec trace.Record) (int, error) {
	var n int
	err := s.do(func(c *Client) error {
		var e error
		n, e = c.Step(vol, rec)
		return e
	})
	return n, err
}

// Stat returns the primary's live statistics for the volume.
func (s *Set) Stat(vol string) (core.Stats, error) {
	var st core.Stats
	err := s.do(func(c *Client) error {
		var e error
		st, e = c.Stat(vol)
		return e
	})
	return st, err
}

// Snapshot forces a journal checkpoint on the primary's volume.
func (s *Set) Snapshot(vol string) error {
	return s.do(func(c *Client) error { return c.Snapshot(vol) })
}
