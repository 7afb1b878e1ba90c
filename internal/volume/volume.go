// Package volume hosts many independent translation-layer simulators in
// one process, the way SMORE-style SMR translation services host many
// volumes behind one daemon. Each Volume wraps one core.Simulator in a
// single-goroutine actor loop fed by a bounded request queue: the
// simulator and its layer stay strictly single-threaded (they are not
// internally synchronized, by design — see DESIGN.md §11 on the
// zero-allocation hot path), while any number of goroutines submit
// requests concurrently.
//
// The actor gives four properties the network service needs:
//
//   - Determinism: requests execute in queue order, one at a time, so a
//     volume fed a trace in order produces Stats bit-identical to a
//     direct single-threaded run of the same trace.
//   - Backpressure: the queue is bounded and TryDo never blocks — a
//     saturated volume sheds load with ErrOverloaded instead of growing
//     an unbounded queue (admission control, not buffering).
//   - Batching: when the queue is deep the actor drains up to BatchSize
//     requests per channel wakeup, amortizing scheduler round-trips at
//     saturation without changing execution order.
//   - Group commit: a journaled volume writes a batch's journal records
//     with one write at its end and holds the batch's results until that
//     write returns: every acknowledged record is in the kernel first.
//
// Each volume owns a per-simulator obsv.Collector (attached through
// core.NewSimulator's per-simulator probes) and, optionally, a
// write-ahead journal; Close drains the queue, checkpoints the layer via
// stl.Snapshot and closes the journal, in that order.
package volume

import (
	"errors"
	"fmt"
	"sync"

	"smrseek/internal/core"
	"smrseek/internal/disk"
	"smrseek/internal/geom"
	"smrseek/internal/journal"
	"smrseek/internal/obsv"
	"smrseek/internal/stl"
	"smrseek/internal/trace"
)

// Submission and lifecycle errors.
var (
	// ErrOverloaded is returned by TryDo when the request queue is full:
	// the volume is saturated and the caller should back off or shed.
	ErrOverloaded = errors.New("volume: request queue full")
	// ErrClosed is returned for submissions after Close began.
	ErrClosed = errors.New("volume: closed")
)

// Defaults for Config zero values.
const (
	DefaultQueueDepth = 256
	DefaultBatchSize  = 32
)

// Op identifies a volume request kind.
type Op uint8

// Request kinds. Read and Write step the simulator; Stat snapshots the
// accumulated statistics.
const (
	OpWrite Op = iota + 1
	OpRead
	OpStat
)

// String returns the op's lowercase name.
func (o Op) String() string {
	switch o {
	case OpWrite:
		return "write"
	case OpRead:
		return "read"
	case OpStat:
		return "stat"
	}
	return fmt.Sprintf("op(%d)", o)
}

// Config describes one volume.
type Config struct {
	// Name identifies the volume to clients and in metrics.
	Name string
	// Sim is the simulator configuration. Sim.Journal must be nil: the
	// volume owns journaling through JournalDir.
	Sim core.Config
	// QueueDepth bounds the request queue (0 = DefaultQueueDepth). When
	// the queue is full TryDo sheds with ErrOverloaded.
	QueueDepth int
	// BatchSize caps how many requests the actor drains per channel
	// wakeup, and so per journal write (0 = DefaultBatchSize). Order is
	// unchanged; batching only amortizes wakeups and writes at saturation.
	BatchSize int
	// JournalDir, when non-empty, enables write-ahead journaling of the
	// layer's mutations in this directory. A directory already holding
	// journal state is recovered: the volume resumes from the
	// checkpoint+journal replay, exactly as smrsim -recover does.
	JournalDir string
	// CheckpointEvery checkpoints the layer after this many journal
	// records (0 = never mid-run; Close always checkpoints).
	CheckpointEvery int64
	// SealEvery sets the journal's segment size: how many records fill a
	// segment before a seal frame closes it with their count
	// (0 = journal.DefaultSegmentSize).
	SealEvery int64
}

// Result is one request's outcome.
type Result struct {
	// Frags is the read's resolved fragment count (0 for other ops).
	Frags int
	// Stats is the statistics snapshot for OpStat, nil otherwise.
	Stats *core.Stats
	// Err is the op-level failure: sticky journal errors for
	// reads/writes (journal.ErrCrashed or any other append failure).
	Err error
	// Tag echoes the Request's Tag, so many requests can share one
	// buffered done channel and still attribute results — the SMRD2
	// server funnels a whole connection's completions through one
	// channel this way.
	Tag uint64
}

// Request is one queued operation. Extent is the logical range for
// reads and writes and ignored otherwise. Tag is an opaque caller
// correlation value echoed in the Result.
type Request struct {
	Kind   Op
	Extent geom.Extent
	Tag    uint64
	done   chan<- Result
}

// Volume is one simulator behind an actor loop. All exported methods
// are safe for concurrent use.
type Volume struct {
	sim   *core.Simulator
	ls    *stl.LS
	wal   *journal.Log
	col   *obsv.Collector
	batch int

	queue chan Request

	mu     sync.RWMutex
	closed bool

	done     chan struct{} // closed when the actor has fully shut down
	closeErr error         // shutdown outcome; read after done
	final    core.Stats    // stats at shutdown; read after done

	held []heldResult // actor-goroutine-only: results awaiting the batch's Commit

	// Recovery describes what was replayed from JournalDir at Open, nil
	// for a fresh volume. Immutable after Open.
	Recovery *stl.ReplayStats
}

// heldResult is a result produced while the journal held unflushed
// records, delivered only after the batch's Commit.
type heldResult struct {
	done chan<- Result
	res  Result
}

// Open builds the volume and starts its actor. With JournalDir set, a
// directory already holding state is recovered first (checkpoint +
// journal replay) and checkpointed before its old journal goes
// (stl.OpenDir), and the volume resumes from the recovered layer.
func Open(cfg Config) (*Volume, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("volume: empty name")
	}
	if cfg.Sim.Journal != nil {
		return nil, fmt.Errorf("volume %s: Sim.Journal must be nil (set JournalDir instead)", cfg.Name)
	}
	if cfg.QueueDepth < 0 || cfg.BatchSize < 0 {
		return nil, fmt.Errorf("volume %s: negative QueueDepth/BatchSize", cfg.Name)
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = DefaultBatchSize
	}
	if cfg.CheckpointEvery < 0 {
		return nil, fmt.Errorf("volume %s: negative CheckpointEvery %d", cfg.Name, cfg.CheckpointEvery)
	}
	if cfg.SealEvery < 0 {
		return nil, fmt.Errorf("volume %s: negative SealEvery %d", cfg.Name, cfg.SealEvery)
	}

	v := &Volume{
		col:   obsv.NewCollector(),
		batch: cfg.BatchSize,
		queue: make(chan Request, cfg.QueueDepth),
		done:  make(chan struct{}),
	}
	simCfg := cfg.Sim
	if cfg.JournalDir != "" {
		if !simCfg.LogStructured {
			return nil, fmt.Errorf("volume %s: journaling requires the log-structured layer", cfg.Name)
		}
		lg, recovered, rst, err := stl.OpenDir(cfg.JournalDir, simCfg.FrontierStart)
		if err != nil {
			return nil, fmt.Errorf("volume %s: %w", cfg.Name, err)
		}
		if cfg.SealEvery > 0 {
			if err := lg.SetSegmentSize(int(cfg.SealEvery)); err != nil {
				lg.Close()
				return nil, fmt.Errorf("volume %s: %w", cfg.Name, err)
			}
		}
		if recovered != nil {
			simCfg.LogStructured = false
			simCfg.CustomLayer = recovered
			v.Recovery = rst
		}
		v.wal = lg
		simCfg.Journal = &core.JournalConfig{Log: lg, CheckpointEvery: cfg.CheckpointEvery}
	}
	sim, err := core.NewSimulator(simCfg, v.col)
	if err != nil {
		if v.wal != nil {
			v.wal.Close()
		}
		return nil, fmt.Errorf("volume %s: %w", cfg.Name, err)
	}
	v.sim = sim
	v.ls = sim.LS()
	if v.ls != nil {
		ls := v.ls
		v.col.SetStateFn(func() (geom.Sector, int) { return ls.Frontier(), ls.Map().Len() })
	}
	go v.loop()
	return v, nil
}

// Collector returns the volume's private metrics collector, for
// registration on a shared obsv.Registry.
func (v *Volume) Collector() *obsv.Collector { return v.col }

// TryDo submits a request without blocking. done must be buffered
// (cap >= 1); the result is delivered on it. A full queue returns
// ErrOverloaded — the backpressure signal — and a closed volume
// ErrClosed; in both cases nothing is delivered on done.
func (v *Volume) TryDo(req Request, done chan Result) error {
	if cap(done) == 0 {
		return fmt.Errorf("volume: done channel must be buffered")
	}
	req.done = done
	v.mu.RLock()
	defer v.mu.RUnlock()
	if v.closed {
		return ErrClosed
	}
	select {
	case v.queue <- req:
		return nil
	default:
		return ErrOverloaded
	}
}

// loop is the actor: it executes queued requests strictly in order on
// one goroutine, draining up to batch requests per wakeup.
func (v *Volume) loop() {
	for req := range v.queue {
		v.process(req)
		for i := 1; i < v.batch; i++ {
			select {
			case more, ok := <-v.queue:
				if !ok {
					// Closed and fully drained; the outer range observes
					// the same and exits.
					i = v.batch
					continue
				}
				v.process(more)
			default:
				i = v.batch
			}
		}
		v.commit()
	}
	v.shutdown()
}

// commit flushes the batch's journal records with one write, then
// delivers the held results in order; a failed flush fails each of them.
func (v *Volume) commit() {
	err := v.sim.Commit()
	for _, h := range v.held {
		if h.res.Err == nil {
			h.res.Err = err
		}
		if h.done != nil {
			h.done <- h.res
		}
	}
	clear(v.held)
	v.held = v.held[:0]
}

func (v *Volume) process(req Request) {
	res := Result{Tag: req.Tag}
	switch req.Kind {
	case OpWrite:
		v.sim.Apply(trace.Record{Kind: disk.Write, Extent: req.Extent})
		res.Err = v.sim.JournalErr()
	case OpRead:
		res.Frags = v.sim.Apply(trace.Record{Kind: disk.Read, Extent: req.Extent})
		res.Err = v.sim.JournalErr()
	case OpStat:
		st := v.sim.Stats()
		res.Stats = &st
	default:
		res.Err = fmt.Errorf("volume: unknown op %d", req.Kind)
	}
	// Once a result is held, later ones queue behind it to keep order.
	if v.wal != nil && (len(v.held) > 0 || v.wal.Buffered() > 0) {
		v.held = append(v.held, heldResult{req.done, res})
		return
	}
	if req.done != nil {
		req.done <- res
	}
}

// shutdown finishes the run on the actor goroutine once the queue is
// drained: final checkpoint (journaled volumes), OnFinish to the
// collector, final stats freeze, journal close — in that order, so the
// on-disk checkpoint reflects every executed request and the
// collector's OnFinish arrives after the last op.
func (v *Volume) shutdown() {
	var err error
	if v.wal != nil && v.ls != nil && v.sim.JournalErr() == nil {
		err = v.wal.CheckpointMap(v.ls.Frontier(), v.ls.LogSectors(), v.ls.Map())
	}
	v.sim.Finish()
	v.final = v.sim.Stats()
	if v.wal != nil {
		if cerr := v.wal.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	v.closeErr = err
	close(v.done)
}

// Close stops intake, waits for the actor to drain every queued request,
// checkpoints journaled state and closes the journal. It is idempotent;
// every caller gets the shutdown outcome.
func (v *Volume) Close() error {
	v.mu.Lock()
	if !v.closed {
		v.closed = true
		close(v.queue)
	}
	v.mu.Unlock()
	<-v.done
	return v.closeErr
}

// Stats returns the volume's final statistics. It is only valid after
// Close has returned; use an OpStat request for a live snapshot.
func (v *Volume) Stats() core.Stats {
	<-v.done
	return v.final
}
