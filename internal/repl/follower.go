package repl

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"smrseek/internal/journal"
	"smrseek/internal/server"
	"smrseek/internal/volume"
)

// FollowerConfig tunes a replication follower.
type FollowerConfig struct {
	// Root is the local journal root directory; the fencing-epoch file
	// lives here.
	Root string
	// Source is the primary's address.
	Source string
	// Configs are the volume configurations to open at promotion. Their
	// JournalDir fields name the local per-volume journal directories the
	// pull loops fill; every config must have one.
	Configs []volume.Config
	// Retry is the pause after a pull error before redialing
	// (0 = 100ms).
	Retry time.Duration
	// SyncTimeout, ForceSealEvery, TailWait, Peers and PollEvery carry
	// into the Primary this node becomes at promotion.
	SyncTimeout    time.Duration
	ForceSealEvery time.Duration
	TailWait       time.Duration
	Peers          []string
	PollEvery      time.Duration
	// Logf receives replication diagnostics (nil = log.Printf).
	Logf func(format string, args ...any)
}

// Follower implements server.ReplHooks for the catching-up side: it
// pulls sealed journal chunks from the source, verifies each received
// prefix before persisting it, acks its applied position, and — on
// Promote — recovers the replicated journals with full verification and
// becomes the serving primary at a bumped fencing epoch.
type Follower struct {
	cfg FollowerConfig

	mu        sync.Mutex
	pos       map[string]server.ReplPosition // verified, applied positions
	epoch     uint64                         // highest epoch seen from the source
	rejects   int64                          // chunks rejected by verification
	prim      *Primary                       // non-nil once promoted
	srv       *server.Server                 // for SetManager at promotion
	mgr       *volume.Manager                // owned after promotion
	promoting bool                           // a Promote is in flight (mu drops to quiesce)
	promoDone chan struct{}                  // closed when that Promote finishes
	promoErr  error                          // sticky promotion failure

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// NewFollower loads the persisted epoch and returns a follower; Start
// launches the pull loops.
func NewFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.Retry <= 0 {
		cfg.Retry = 100 * time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	for _, vc := range cfg.Configs {
		if vc.JournalDir == "" {
			return nil, fmt.Errorf("repl: follower volume %q has no journal directory", vc.Name)
		}
		if err := os.MkdirAll(vc.JournalDir, 0o777); err != nil {
			return nil, err
		}
	}
	epoch, err := LoadEpoch(cfg.Root)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Follower{
		cfg:    cfg,
		pos:    make(map[string]server.ReplPosition),
		epoch:  epoch,
		ctx:    ctx,
		cancel: cancel,
	}, nil
}

// AttachServer gives the follower the server to install the recovered
// volume set into at promotion.
func (f *Follower) AttachServer(s *server.Server) { f.srv = s }

// Start launches one pull loop per volume.
func (f *Follower) Start() {
	for _, vc := range f.cfg.Configs {
		f.wg.Add(1)
		go f.pull(vc.Name, vc.JournalDir)
	}
}

// Close stops the pull loops (and the promoted primary, if any). It
// does not close the promoted volume manager: the caller owns volume
// shutdown ordering, via Manager.
func (f *Follower) Close() {
	f.cancel()
	f.wg.Wait()
	f.mu.Lock()
	prim := f.prim
	f.mu.Unlock()
	if prim != nil {
		prim.Close()
	}
}

// Manager returns the volume set opened at promotion (nil before).
func (f *Follower) Manager() *volume.Manager {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.mgr
}

// Rejects returns how many shipped chunks verification refused.
func (f *Follower) Rejects() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rejects
}

// promoted returns the post-promotion primary, or nil.
func (f *Follower) promoted() *Primary {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.prim
}

// Role reports "follower" with the verified applied positions, or the
// promoted primary's role.
func (f *Follower) Role() server.RoleInfo {
	if p := f.promoted(); p != nil {
		return p.Role()
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	vols := make(map[string]server.ReplPosition, len(f.pos))
	for name, pos := range f.pos {
		vols[name] = pos
	}
	return server.RoleInfo{Role: "follower", Epoch: f.epoch, Volumes: vols}
}

// Epoch returns the highest fencing epoch this node has seen or been
// promoted to.
func (f *Follower) Epoch() uint64 {
	if p := f.promoted(); p != nil {
		return p.Epoch()
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch
}

// AcceptingData is false until promotion.
func (f *Follower) AcceptingData() bool {
	p := f.promoted()
	return p != nil && p.AcceptingData()
}

// GateWrite delegates to the promoted primary (no-op before promotion:
// an unpromoted follower serves no writes).
func (f *Follower) GateWrite(vol string, seq int64) {
	if p := f.promoted(); p != nil {
		p.GateWrite(vol, seq)
	}
}

// WaitTail delegates to the promoted primary; before promotion it
// returns immediately (OpTail degenerates to OpShip, and an unpromoted
// follower has no open volumes to ship from anyway).
func (f *Follower) WaitTail(ctx context.Context, vol string, gen uint64, off int64) {
	if p := f.promoted(); p != nil {
		p.WaitTail(ctx, vol, gen, off)
	}
}

// Ack delegates to the promoted primary and is dropped before
// promotion.
func (f *Follower) Ack(vol string, gen uint64, off int64) {
	if p := f.promoted(); p != nil {
		p.Ack(vol, gen, off)
	}
}

// Promote turns this follower into the serving primary: it stops the
// pull loops, bumps and persists the fencing epoch, opens every volume
// over the replicated journal directories — verified recovery, the same
// path crash recovery takes — installs the set into the server, and
// starts serving. Idempotent once promoted; a failed promotion is
// sticky (the pull loops are gone and the journals may be half-opened).
func (f *Follower) Promote() (server.RoleInfo, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for f.promoting {
		// Another connection is mid-promotion; wait for its outcome.
		done := f.promoDone
		f.mu.Unlock()
		<-done
		f.mu.Lock()
	}
	if f.prim != nil {
		return f.prim.Role(), nil
	}
	if f.promoErr != nil {
		return server.RoleInfo{}, f.promoErr
	}
	f.promoting = true
	f.promoDone = make(chan struct{})
	defer func() {
		f.promoting = false
		close(f.promoDone)
	}()

	// Quiesce the pull loops so nothing appends to the journal files
	// while recovery reads them.
	f.cancel()
	f.mu.Unlock()
	f.wg.Wait()
	f.mu.Lock()

	if err := StoreEpoch(f.cfg.Root, f.epoch+1); err != nil {
		f.promoErr = fmt.Errorf("repl: promote: %w", err)
		return server.RoleInfo{}, f.promoErr
	}
	f.epoch++

	prim, err := NewPrimary(PrimaryConfig{
		Root:           f.cfg.Root,
		SyncTimeout:    f.cfg.SyncTimeout,
		ForceSealEvery: f.cfg.ForceSealEvery,
		TailWait:       f.cfg.TailWait,
		Peers:          f.cfg.Peers,
		PollEvery:      f.cfg.PollEvery,
		Logf:           f.cfg.Logf,
	})
	if err != nil {
		f.promoErr = fmt.Errorf("repl: promote: %w", err)
		return server.RoleInfo{}, f.promoErr
	}
	cfgs := make([]volume.Config, len(f.cfg.Configs))
	for i, vc := range f.cfg.Configs {
		vc.OnSeal = prim.OnSeal(vc.Name)
		cfgs[i] = vc
	}
	mgr, err := volume.OpenAll(cfgs...)
	if err != nil {
		prim.Close()
		f.promoErr = fmt.Errorf("repl: promote: verified recovery failed: %w", err)
		return server.RoleInfo{}, f.promoErr
	}
	prim.AttachManager(mgr)
	f.mgr = mgr
	f.prim = prim
	if f.srv != nil {
		f.srv.SetManager(mgr)
	}
	f.cfg.Logf("repl: promoted to primary at epoch %d (%d volumes recovered)", f.epoch, len(cfgs))
	return prim.Role(), nil
}

// chunkPos is a verified frontier's wire position.
func chunkPos(st journal.ChunkState) server.ReplPosition {
	return server.ReplPosition{Gen: st.Gen, Bytes: st.Offset, Records: st.Records}
}

// verifyReq hands one shipped segments chunk, plus the verified frontier
// it must continue, to the verifier goroutine.
type verifyReq struct {
	chunk journal.ShipChunk
	st    journal.ChunkState
}

// verifyRes is the verifier's outcome: the advanced frontier, or the
// unchanged one with the rejection reason.
type verifyRes struct {
	st  journal.ChunkState
	err error
}

// pull is one volume's replication loop: scan the local journal state
// once, then long-poll the source for the next chunk past the frontier.
// Segment chunks are handed to a per-volume verifier goroutine that
// verifies, persists and acks them while this goroutine is already
// long-polling for the next chunk at the optimistic position past the
// in-flight one — shipping and verification overlap instead of taking
// turns. At most one chunk is in flight; its result is joined before
// the next chunk is processed, so chunks still verify and apply
// strictly in order.
func (f *Follower) pull(name, dir string) {
	defer f.wg.Done()
	var c *server.Client
	defer func() {
		if c != nil {
			c.Close()
		}
	}()

	reqs := make(chan verifyReq)
	ress := make(chan verifyRes, 1) // cap 1: the verifier never blocks sending
	f.wg.Add(1)
	go f.verifier(name, dir, reqs, ress)
	defer close(reqs)

	var (
		st      journal.ChunkState // verified frontier
		pending *verifyReq         // chunk the verifier is working on
		scanned bool
	)
	// join collects the in-flight chunk's outcome, advancing the frontier
	// or reporting the rejection.
	join := func() bool {
		if pending == nil {
			return true
		}
		res := <-ress
		pending = nil
		if res.err != nil {
			f.reject(name, res.err)
			return false
		}
		st = res.st
		return true
	}

	for f.ctx.Err() == nil {
		if c == nil {
			var err error
			c, err = server.DialContext(f.ctx, f.cfg.Source)
			if err != nil {
				f.sleep()
				continue
			}
		}
		if !scanned {
			var err error
			st, err = f.scanLocal(dir)
			if err != nil {
				f.cfg.Logf("repl: %s: local journal state unusable: %v", name, err)
				return
			}
			f.setPos(name, chunkPos(st))
			scanned = true
		}
		// Ask at the optimistic position: past the in-flight chunk, so the
		// source prepares the next one while this one verifies. If the
		// in-flight chunk is then rejected, whatever this returns is
		// speculation on top of bad bytes and is dropped below.
		askGen, askOff := st.Gen, st.Offset
		if pending != nil {
			askGen = pending.chunk.Gen
			askOff = pending.chunk.Off + int64(len(pending.chunk.Data))
		}
		epoch, chunk, err := c.Tail(name, askGen, askOff)
		if err != nil {
			var se *server.StatusError
			if errors.As(err, &se) {
				// The source is alive but cannot feed us right now — it is
				// fenced, demoted, or sees us as ahead. Keep polling: chaos
				// heals partitions and a fenced source may be all we have.
				f.sleep()
				continue
			}
			c.Close()
			c = nil
			f.sleep()
			continue
		}
		f.observeEpoch(epoch)
		if !join() {
			continue
		}
		switch chunk.Kind {
		case journal.ShipNone:
			// The long poll expired with nothing new; ask again.
		case journal.ShipCheckpoint:
			newSt, err := f.applyCheckpoint(dir, chunk)
			if err != nil {
				f.reject(name, err)
				continue
			}
			st = newSt
			f.setPos(name, chunkPos(st))
			_ = c.Ack(name, st.Gen, st.Offset)
		case journal.ShipSegments:
			req := verifyReq{chunk: chunk, st: st}
			select {
			case reqs <- req:
				pending = &req
			case <-f.ctx.Done():
			}
		default:
			f.reject(name, fmt.Errorf("unknown ship kind %d", chunk.Kind))
		}
	}
}

// verifier is a pull loop's verification stage: it verifies, persists
// and acks segment chunks off the pull goroutine. Acks go out on the
// verifier's own connection — the puller's is busy inside the next
// long poll, and delaying the ack until that poll returned would stall
// the primary's semi-sync write gate for up to its TailWait.
func (f *Follower) verifier(name, dir string, reqs <-chan verifyReq, ress chan<- verifyRes) {
	defer f.wg.Done()
	var ack *server.Client
	defer func() {
		if ack != nil {
			ack.Close()
		}
	}()
	for req := range reqs {
		st, err := f.applySegments(dir, req.st, req.chunk)
		if err == nil {
			f.setPos(name, chunkPos(st))
			if ack == nil {
				if c, derr := server.DialContext(f.ctx, f.cfg.Source); derr == nil {
					ack = c
				}
			}
			if ack != nil {
				if aerr := ack.Ack(name, st.Gen, st.Offset); aerr != nil {
					ack.Close()
					ack = nil
				}
			}
		}
		ress <- verifyRes{st: st, err: err}
	}
}

// scanLocal reads the volume's local journal directory and returns the
// verified frontier to resume pulling from, truncating crash residue
// (a torn tail past the last seal) first. This is the one full-prefix
// scan of the process lifetime — it runs on the parallel verification
// pool — and every later chunk verifies incrementally against the
// frontier it establishes.
func (f *Follower) scanLocal(dir string) (journal.ChunkState, error) {
	snap, err := journal.ReadCheckpointFile(journal.CheckpointPath(dir))
	if err != nil {
		return journal.ChunkState{}, err
	}
	raw, err := os.ReadFile(journal.JournalPath(dir))
	if os.IsNotExist(err) {
		if snap != nil {
			return journal.ChunkState{Gen: snap.Generation + 1}, nil
		}
		return journal.ChunkState{}, nil
	}
	if err != nil {
		return journal.ChunkState{}, err
	}
	d, err := journal.ScanBytesWorkers(raw, 0)
	if err != nil {
		return journal.ChunkState{}, err
	}
	if snap != nil && d.Generation <= snap.Generation {
		// Stale pre-checkpoint generation (crash between checkpoint
		// install and journal removal): subsumed, discard it.
		if err := os.Remove(journal.JournalPath(dir)); err != nil {
			return journal.ChunkState{}, err
		}
		return journal.ChunkState{Gen: snap.Generation + 1}, nil
	}
	end := journal.SealedEndOf(d)
	if end < int64(len(raw)) {
		// A crash mid-append left bytes past the last verified seal; we
		// only ack sealed bytes, so drop them and re-pull.
		if err := os.Truncate(journal.JournalPath(dir), end); err != nil {
			return journal.ChunkState{}, err
		}
	}
	return journal.ChunkState{
		Gen:     d.Generation,
		Offset:  end,
		Chain:   d.ChainHead(),
		Seals:   len(d.Seals),
		Records: d.Sealed,
	}, nil
}

// applyCheckpoint verifies and durably installs a shipped checkpoint,
// discarding the subsumed local journal, and returns the frontier to
// resume at: generation ckpt+1, offset 0 (expecting a fresh chunk).
func (f *Follower) applyCheckpoint(dir string, chunk journal.ShipChunk) (journal.ChunkState, error) {
	snap, err := journal.ReadCheckpoint(bytes.NewReader(chunk.Data))
	if err != nil {
		return journal.ChunkState{}, fmt.Errorf("shipped checkpoint does not verify: %w", err)
	}
	if snap.Generation != chunk.Gen {
		return journal.ChunkState{}, fmt.Errorf("shipped checkpoint generation %d, chunk says %d", snap.Generation, chunk.Gen)
	}
	if err := writeFileAtomic(journal.CheckpointPath(dir), chunk.Data); err != nil {
		return journal.ChunkState{}, err
	}
	if err := os.Remove(journal.JournalPath(dir)); err != nil && !os.IsNotExist(err) {
		return journal.ChunkState{}, err
	}
	return journal.ChunkState{Gen: snap.Generation + 1}, nil
}

// applySegments verifies a shipped byte range as the exact continuation
// of the verified frontier st and persists it, returning the advanced
// frontier. Only the chunk's own bytes are verified — frame CRCs,
// segment Merkle roots, and chain links extending st.Chain — so each
// sealed byte is verified exactly once per process lifetime instead of
// re-verifying the whole prefix on every pull. A fresh chunk (Off == 0)
// carries the generation header, which is checked against the local
// checkpoint (anchor and generation succession) before its segments
// are verified from the header's anchor. A chunk that fails is rejected
// without side effects.
func (f *Follower) applySegments(dir string, st journal.ChunkState, chunk journal.ShipChunk) (journal.ChunkState, error) {
	if chunk.Off == 0 {
		gen, _, anchor, err := journal.ParseHeader(chunk.Data)
		if err != nil {
			return st, fmt.Errorf("shipped prefix does not verify: %w", err)
		}
		if gen != chunk.Gen {
			return st, fmt.Errorf("shipped header generation %d, chunk says %d", gen, chunk.Gen)
		}
		snap, err := journal.ReadCheckpointFile(journal.CheckpointPath(dir))
		if err != nil {
			return st, err
		}
		switch {
		case snap == nil && !anchor.IsZero():
			return st, fmt.Errorf("shipped journal anchors at %s with no local checkpoint", anchor.Short())
		case snap != nil && gen != snap.Generation+1:
			return st, fmt.Errorf("shipped generation %d does not succeed local checkpoint %d",
				gen, snap.Generation)
		case snap != nil && anchor != snap.Chain:
			return st, fmt.Errorf("shipped anchor %s does not match local checkpoint chain %s",
				anchor.Short(), snap.Chain.Short())
		}
		init := journal.ChunkState{Gen: gen, Offset: journal.HeaderLen, Chain: anchor}
		newSt, err := journal.VerifyChunkSegments(chunk.Data[journal.HeaderLen:], init)
		if err != nil {
			return st, fmt.Errorf("shipped prefix does not verify: %w", err)
		}
		if err := writeFileAtomic(journal.JournalPath(dir), chunk.Data); err != nil {
			return st, err
		}
		return newSt, nil
	}
	if chunk.Gen != st.Gen || chunk.Off != st.Offset {
		return st, fmt.Errorf("chunk at (gen %d, off %d), local position (gen %d, off %d)",
			chunk.Gen, chunk.Off, st.Gen, st.Offset)
	}
	newSt, err := journal.VerifyChunkSegments(chunk.Data, st)
	if err != nil {
		return st, fmt.Errorf("shipped chunk does not verify: %w", err)
	}
	if err := appendAt(journal.JournalPath(dir), chunk.Off, chunk.Data); err != nil {
		return st, err
	}
	return newSt, nil
}

// appendAt writes data at byte offset off of path and fsyncs.
func appendAt(path string, off int64, data []byte) error {
	fd, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer fd.Close()
	if _, err := fd.WriteAt(data, off); err != nil {
		return err
	}
	return fd.Sync()
}

// reject logs and counts a chunk that verification refused.
func (f *Follower) reject(name string, err error) {
	f.mu.Lock()
	f.rejects++
	f.mu.Unlock()
	f.cfg.Logf("repl: %s: rejected shipped chunk: %v", name, err)
	f.sleep()
}

// setPos publishes a volume's verified applied position.
func (f *Follower) setPos(name string, pos server.ReplPosition) {
	f.mu.Lock()
	f.pos[name] = pos
	f.mu.Unlock()
}

// observeEpoch adopts a higher fencing epoch seen from the source,
// persisting it so a restart cannot regress.
func (f *Follower) observeEpoch(epoch uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if epoch > f.epoch {
		if err := StoreEpoch(f.cfg.Root, epoch); err != nil {
			f.cfg.Logf("repl: persisting epoch %d: %v", epoch, err)
			return
		}
		f.epoch = epoch
	}
}

// sleep pauses the pull loop for the retry interval (or until Close).
func (f *Follower) sleep() {
	select {
	case <-f.ctx.Done():
	case <-time.After(f.cfg.Retry):
	}
}
