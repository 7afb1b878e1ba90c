package repl

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"smrseek/internal/journal"
	"smrseek/internal/server"
	"smrseek/internal/volume"
)

// Defaults for PrimaryConfig's zero values.
const (
	DefaultTailWait  = time.Second
	DefaultPollEvery = 250 * time.Millisecond
	// pulseEvery is the cond-broadcast heartbeat that turns cond.Wait
	// into a timed wait for gate and tail deadlines.
	pulseEvery = 20 * time.Millisecond
)

// mark is one seal boundary: after it, the journal's generation gen is
// sealed through byte offset bytes, and the seal commits every write up
// to the cumulative append watermark appends. A follower ack of
// (gen', off') with gen' > gen, or gen' == gen and off' >= bytes,
// proves the follower holds (verified) every one of those writes.
type mark struct {
	gen     uint64
	bytes   int64
	appends int64
}

// covered reports whether a follower ack at (gen, off) proves
// possession of mark m.
func (m mark) covered(gen uint64, off int64) bool {
	return m.gen < gen || (m.gen == gen && m.bytes <= off)
}

// src is one volume's replication state on the primary.
type src struct {
	v        *volume.Volume // nil until AttachManager
	marks    []mark         // seal boundaries, oldest first; last = sealed frontier
	ackGen   uint64         // follower's highest acked position
	ackBytes int64
	acked    int64 // highest append watermark covered by acks
	// degraded latches after a gate timeout: the follower is too far
	// behind (or gone), so writes stop paying the sync wait until its
	// acks cover the sealed frontier again. Every write acked in this
	// mode counts into Primary.degraded — the honest tally of
	// acknowledgments that would not survive losing the primary.
	degraded bool
}

// PrimaryConfig tunes a replication primary.
type PrimaryConfig struct {
	// Root is the journal root directory; the fencing-epoch file lives
	// here.
	Root string
	// SyncTimeout bounds how long an OpWrite acknowledgment waits for a
	// follower ack to cover it. 0 disables write gating entirely
	// (asynchronous replication: acknowledged-but-unshipped writes can be
	// lost with the primary).
	SyncTimeout time.Duration
	// ForceSealEvery bounds how long acknowledged records may sit in an
	// open (unsealed, unshippable) segment: a ticker force-seals every
	// volume at this period. 0 disables the tick.
	ForceSealEvery time.Duration
	// TailWait bounds one OpTail long-poll (0 = DefaultTailWait).
	TailWait time.Duration
	// Peers are the other nodes' addresses, polled for a higher fencing
	// epoch; seeing one demotes this primary to "fenced".
	Peers []string
	// PollEvery is the peer poll period (0 = DefaultPollEvery).
	PollEvery time.Duration
	// Logf receives replication diagnostics (nil = log.Printf).
	Logf func(format string, args ...any)
}

// Primary implements server.ReplHooks for the serving side: it tracks
// seal watermarks and follower acks per volume, gates write
// acknowledgments, answers tail long-polls, force-seals on a tick, and
// fences itself when a peer serves at a higher epoch.
type Primary struct {
	cfg PrimaryConfig

	mu       sync.Mutex
	cond     *sync.Cond
	vols     map[string]*src
	epoch    uint64
	fenced   bool
	degraded int64 // writes released by degrade timeout, not by ack

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// NewPrimary loads (or initializes) the fencing epoch and returns a
// primary ready to hand out OnSeal subscriptions. Call AttachManager
// once the volumes are open to start the force-seal tick and peer poll.
func NewPrimary(cfg PrimaryConfig) (*Primary, error) {
	if cfg.TailWait <= 0 {
		cfg.TailWait = DefaultTailWait
	}
	if cfg.PollEvery <= 0 {
		cfg.PollEvery = DefaultPollEvery
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	epoch, err := LoadEpoch(cfg.Root)
	if err != nil {
		return nil, err
	}
	if epoch == 0 {
		// First boot as primary: epoch 1.
		epoch = 1
		if err := StoreEpoch(cfg.Root, epoch); err != nil {
			return nil, err
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	p := &Primary{
		cfg:    cfg,
		vols:   make(map[string]*src),
		epoch:  epoch,
		ctx:    ctx,
		cancel: cancel,
	}
	p.cond = sync.NewCond(&p.mu)
	// The pulse turns cond.Wait into a timed wait: gate and tail loops
	// re-check their deadlines at every broadcast.
	p.wg.Add(1)
	go p.pulse()
	return p, nil
}

// Close stops the background loops and releases every gated waiter.
func (p *Primary) Close() {
	p.cancel()
	p.mu.Lock()
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// OnSeal returns the seal-chain subscription to install as the named
// volume's Config.OnSeal before opening it. It runs on the volume's
// actor goroutine and must stay non-blocking.
func (p *Primary) OnSeal(vol string) journal.SealFunc {
	return func(gen uint64, sealedBytes, appends int64) {
		p.mu.Lock()
		s := p.src(vol)
		s.marks = append(s.marks, mark{gen: gen, bytes: sealedBytes, appends: appends})
		p.settle(s)
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

// AttachManager wires the open volumes to their replication state and
// starts the force-seal tick and peer poll.
func (p *Primary) AttachManager(mgr *volume.Manager) {
	p.mu.Lock()
	for _, name := range mgr.Names() {
		v, _ := mgr.Get(name)
		p.src(name).v = v
	}
	p.mu.Unlock()
	if p.cfg.ForceSealEvery > 0 {
		p.wg.Add(1)
		go p.sealTick()
	}
	if len(p.cfg.Peers) > 0 {
		p.wg.Add(1)
		go p.pollPeers()
	}
}

// src returns (creating if needed) the volume's state. Callers hold mu.
func (p *Primary) src(vol string) *src {
	s, ok := p.vols[vol]
	if !ok {
		s = new(src)
		p.vols[vol] = s
	}
	return s
}

// settle recomputes the covered-ack watermark and drops marks the
// follower has passed (the newest mark always stays: it is the sealed
// frontier Role reports and tail waits compare against). Callers hold
// mu.
func (p *Primary) settle(s *src) {
	kept := s.marks[:0]
	for i, m := range s.marks {
		if m.covered(s.ackGen, s.ackBytes) {
			if m.appends > s.acked {
				s.acked = m.appends
			}
			if i != len(s.marks)-1 {
				continue
			}
		}
		kept = append(kept, m)
	}
	s.marks = kept
	// The follower's acks cover the whole sealed frontier again: leave
	// degraded mode, writes gate synchronously once more.
	if n := len(s.marks); n > 0 && s.marks[n-1].covered(s.ackGen, s.ackBytes) {
		s.degraded = false
	}
}

// Role reports the node's role, epoch and per-volume sealed frontiers.
func (p *Primary) Role() server.RoleInfo {
	p.mu.Lock()
	defer p.mu.Unlock()
	role := "primary"
	if p.fenced {
		role = "fenced"
	}
	vols := make(map[string]server.ReplPosition, len(p.vols))
	for name, s := range p.vols {
		if n := len(s.marks); n > 0 {
			m := s.marks[n-1]
			vols[name] = server.ReplPosition{Gen: m.gen, Bytes: m.bytes, Records: m.appends}
		}
	}
	return server.RoleInfo{Role: role, Epoch: p.epoch, Volumes: vols}
}

// Epoch returns the fencing epoch.
func (p *Primary) Epoch() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.epoch
}

// AcceptingData reports whether data ops may be served: true until the
// peer poll fences this node.
func (p *Primary) AcceptingData() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return !p.fenced
}

// Degraded returns how many gated writes were released by the degrade
// timeout instead of a follower ack — the honest count of
// acknowledgments that would not survive losing the primary.
func (p *Primary) Degraded() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.degraded
}

// GateWrite holds an OpWrite acknowledgment until a follower ack covers
// journal watermark seq on vol, the degrade window expires, the node
// fences, or the primary shuts down. A write not yet behind a seal
// force-seals its volume first — replication is the whole point of the
// wait, so the segment closes now rather than at the next tick. After a
// timeout the volume latches into degraded (asynchronous) mode until
// the follower's acks cover the sealed frontier again, so a dead
// follower costs one degrade window total, not one per write.
func (p *Primary) GateWrite(vol string, seq int64) {
	if p.cfg.SyncTimeout <= 0 || seq <= 0 {
		return
	}
	deadline := time.Now().Add(p.cfg.SyncTimeout)
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.src(vol)
	if s.degraded {
		p.degraded++
		return
	}
	if n := len(s.marks); (n == 0 || s.marks[n-1].appends < seq) && s.v != nil {
		v := s.v
		p.mu.Unlock()
		p.forceSeal(v)
		p.mu.Lock()
	}
	for s.acked < seq && !p.fenced && p.ctx.Err() == nil {
		if time.Now().After(deadline) {
			s.degraded = true
			p.degraded++
			return
		}
		p.cond.Wait()
	}
}

// WaitTail holds an OpTail until vol's sealed frontier moves past
// (gen, off) or the tail window expires. A follower that has caught up
// to the frontier triggers a force-seal, so acknowledged-but-unsealed
// tail records replicate within one round trip instead of waiting for
// the segment to fill.
func (p *Primary) WaitTail(ctx context.Context, vol string, gen uint64, off int64) {
	deadline := time.Now().Add(p.cfg.TailWait)
	p.mu.Lock()
	s := p.src(vol)
	if !frontierBeyond(s, gen, off) {
		v := s.v
		p.mu.Unlock()
		p.forceSeal(v)
		p.mu.Lock()
	}
	for !frontierBeyond(s, gen, off) && ctx.Err() == nil && p.ctx.Err() == nil {
		if time.Now().After(deadline) {
			break
		}
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// frontierBeyond reports whether the volume's sealed frontier is past
// (gen, off). Callers hold mu.
func frontierBeyond(s *src, gen uint64, off int64) bool {
	n := len(s.marks)
	if n == 0 {
		return false
	}
	m := s.marks[n-1]
	return m.gen > gen || (m.gen == gen && m.bytes > off)
}

// Ack records a follower's verified position and releases every gated
// write it covers.
func (p *Primary) Ack(vol string, gen uint64, off int64) {
	p.mu.Lock()
	s := p.src(vol)
	if gen > s.ackGen || (gen == s.ackGen && off > s.ackBytes) {
		s.ackGen, s.ackBytes = gen, off
		p.settle(s)
		p.cond.Broadcast()
	}
	p.mu.Unlock()
}

// Promote on a primary is idempotent; a fenced ex-primary refuses —
// its unreplicated tail may conflict with the serving primary's
// history, so it must rejoin as a follower instead.
func (p *Primary) Promote() (server.RoleInfo, error) {
	p.mu.Lock()
	fenced := p.fenced
	p.mu.Unlock()
	if fenced {
		return p.Role(), fmt.Errorf("repl: fenced ex-primary; rejoin as follower")
	}
	return p.Role(), nil
}

// forceSeal submits a non-blocking OpSeal to the volume's actor; an
// overloaded queue skips the tick (the next one retries).
func (p *Primary) forceSeal(v *volume.Volume) {
	if v == nil {
		return
	}
	done := make(chan volume.Result, 1)
	_ = v.TryDo(volume.Request{Kind: volume.OpSeal}, done)
}

// pulse broadcasts the cond periodically so gate and tail waits can
// enforce deadlines.
func (p *Primary) pulse() {
	defer p.wg.Done()
	t := time.NewTicker(pulseEvery)
	defer t.Stop()
	for {
		select {
		case <-p.ctx.Done():
			return
		case <-t.C:
			p.mu.Lock()
			p.cond.Broadcast()
			p.mu.Unlock()
		}
	}
}

// sealTick force-seals every volume on a period, bounding how long
// acknowledged records can sit unsealed and therefore unshipped.
func (p *Primary) sealTick() {
	defer p.wg.Done()
	t := time.NewTicker(p.cfg.ForceSealEvery)
	defer t.Stop()
	for {
		select {
		case <-p.ctx.Done():
			return
		case <-t.C:
			p.mu.Lock()
			targets := make([]*volume.Volume, 0, len(p.vols))
			for _, s := range p.vols {
				if s.v != nil {
					targets = append(targets, s.v)
				}
			}
			p.mu.Unlock()
			for _, v := range targets {
				p.forceSeal(v)
			}
		}
	}
}

// pollPeers watches the other nodes for a higher fencing epoch. A peer
// serving as primary at a higher epoch means this node was superseded
// while partitioned or down: it fences itself — data ops start failing
// with StatusNotPrimary — rather than split-braining.
func (p *Primary) pollPeers() {
	defer p.wg.Done()
	t := time.NewTicker(p.cfg.PollEvery)
	defer t.Stop()
	for {
		select {
		case <-p.ctx.Done():
			return
		case <-t.C:
			for _, peer := range p.cfg.Peers {
				p.probe(peer)
			}
		}
	}
}

// probe asks one peer for its role and fences this node if the peer
// serves at a higher epoch.
func (p *Primary) probe(peer string) {
	ctx, cancel := context.WithTimeout(p.ctx, p.cfg.PollEvery)
	defer cancel()
	c, err := server.DialContext(ctx, peer)
	if err != nil {
		return
	}
	defer c.Close()
	info, err := c.Role()
	if err != nil {
		return
	}
	p.mu.Lock()
	if info.Role == "primary" && info.Epoch > p.epoch && !p.fenced {
		p.fenced = true
		p.cond.Broadcast()
		p.cfg.Logf("repl: fenced: peer %s serves at epoch %d > local %d", peer, info.Epoch, p.epoch)
	}
	p.mu.Unlock()
}
