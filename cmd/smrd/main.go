// Command smrd serves SMR translation-layer volumes over TCP. Each
// volume is one simulator behind a bounded actor queue (internal/volume)
// and clients speak the length-prefixed binary protocol documented in
// docs/FORMATS.md (internal/server). A saturated volume sheds requests
// with an "overloaded" status instead of queueing without bound.
//
// Examples:
//
//	smrd -listen 127.0.0.1:4590 -volumes a,b
//	smrd -volumes "hot=defrag+cache,cold=prefetch" -metrics-addr 127.0.0.1:8080
//	smrd -volumes a -journal-dir /tmp/smrd    # durable: restart resumes
//
// Shut down with SIGINT/SIGTERM: the daemon stops accepting, drains
// every volume queue, checkpoints journaled state and prints a
// per-volume summary.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"smrseek/internal/core"
	"smrseek/internal/geom"
	"smrseek/internal/journal"
	"smrseek/internal/obsv"
	"smrseek/internal/report"
	"smrseek/internal/server"
	"smrseek/internal/volume"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "smrd:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("smrd", flag.ContinueOnError)
	var (
		listen      = fs.String("listen", "127.0.0.1:4590", "TCP address to serve the smrd protocol on")
		volumes     = fs.String("volumes", "v0", `comma-separated volume specs: "name[=opt+opt...]" with opts defrag, prefetch, cache (always log-structured)`)
		journalDir  = fs.String("journal-dir", "", "enable per-volume write-ahead journals under this directory (one subdirectory per volume; restart resumes)")
		metricsAddr = fs.String("metrics-addr", "", `serve per-volume JSON metrics on this address (/metrics?volume=NAME, /volumes)`)
		pprofFlag   = fs.Bool("pprof", false, "also serve net/http/pprof on -metrics-addr")
		frontier    = fs.Int64("frontier", 1<<22, "log frontier start sector for every volume (the paper places it above the highest LBA)")
		queueDepth  = fs.Int("queue-depth", volume.DefaultQueueDepth, "per-volume request queue bound; a full queue sheds with an overloaded status")
		batch       = fs.Int("batch", volume.DefaultBatchSize, "max requests the actor drains per wakeup and per journal write")
		ckptEvery   = fs.Int64("checkpoint-every", 4096, "checkpoint a journaled volume after this many journal records (0 = only at shutdown)")
		sealEvery   = fs.Int64("seal-every", journal.DefaultSegmentSize, "seal a Merkle segment after this many journal records")
		recWorkers  = fs.Int("recover-workers", 0, "verification workers per volume during journal recovery (0 = GOMAXPROCS, 1 = sequential); recovered state is identical at any count")
		reqTimeout  = fs.Duration("request-timeout", 0, "per-request execution timeout once queued (0 = none); expiry answers a timeout status and the connection stays open")
		maxWindow   = fs.Int("max-window", 0, "cap on the per-connection in-flight window granted to SMRD2 pipelined clients (0 = built-in default)")
	)
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *maxWindow < 0 || *maxWindow > server.HardMaxWindow:
		return fmt.Errorf("-max-window %d out of range [0, %d]", *maxWindow, server.HardMaxWindow)
	case *reqTimeout < 0:
		return fmt.Errorf("-request-timeout %v must be >= 0", *reqTimeout)
	case *recWorkers < 0:
		return fmt.Errorf("-recover-workers %d must be >= 0", *recWorkers)
	case *sealEvery < 0:
		return fmt.Errorf("-seal-every %d must be >= 0", *sealEvery)
	case *ckptEvery < 0:
		return fmt.Errorf("-checkpoint-every %d must be >= 0", *ckptEvery)
	}
	cfgs, err := parseVolumes(*volumes, *journalDir, geom.Sector(*frontier), *queueDepth, *batch, *ckptEvery, *sealEvery, *recWorkers)
	if err != nil {
		return err
	}
	logf := func(format string, a ...any) {
		fmt.Fprintf(out, format+"\n", a...)
	}

	mgr, err := volume.OpenAll(cfgs...)
	if err != nil {
		return err
	}
	for _, name := range mgr.Names() {
		v, _ := mgr.Get(name)
		if r := v.Recovery; r != nil {
			mbps := 0.0
			if r.Elapsed > 0 {
				mbps = float64(r.JournalBytes) / r.Elapsed.Seconds() / (1 << 20)
			}
			fmt.Fprintf(out, "smrd: volume %s recovered: checkpoint=%v, %d journal records replayed, verified=%v (%d sealed segments), %d bytes in %s (%.1f MB/s, workers=%d)\n",
				name, r.FromCheckpoint, r.Replayed, r.Verified, r.SealedSegments,
				r.JournalBytes, r.Elapsed.Round(time.Microsecond), mbps, r.Workers)
		}
	}

	var msrv *obsv.Server
	if *metricsAddr != "" {
		msrv, err = obsv.ServeRegistry(*metricsAddr, mgr.Registry(), *pprofFlag)
		if err != nil {
			mgr.Close()
			return err
		}
		defer msrv.Close()
		fmt.Fprintf(out, "smrd: metrics on http://%s/metrics\n", msrv.Addr())
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		mgr.Close()
		return err
	}
	srv := server.New(mgr, ln, server.Options{
		RequestTimeout: *reqTimeout,
		MaxWindow:      *maxWindow,
		Logf:           logf,
	})
	fmt.Fprintf(out, "smrd: listening on %s (volumes: %s)\n", srv.Addr(), strings.Join(mgr.Names(), ", "))

	<-ctx.Done()
	fmt.Fprintln(out, "smrd: shutting down")
	// Ordering matters: stop the network first so no request can race a
	// closing volume, then drain + checkpoint the volumes.
	srv.Close()
	closeErr := mgr.Close()

	tbl := report.NewTable("per-volume summary", "volume", "reads", "writes", "frag reads", "read seeks")
	for _, name := range mgr.Names() {
		v, _ := mgr.Get(name)
		st := v.Stats()
		tbl.AddRow(name, report.HumanCount(st.Reads), report.HumanCount(st.Writes),
			report.HumanCount(st.FragmentedReads), report.HumanCount(st.Disk.ReadSeeks))
	}
	if err := tbl.Render(out); err != nil {
		return err
	}
	return closeErr
}

// parseVolumes expands the -volumes spec into volume configurations.
// Grammar: spec := entry ("," entry)*; entry := name ("=" opt ("+" opt)*)?
func parseVolumes(spec, journalDir string, frontier geom.Sector, queueDepth, batch int, ckptEvery, sealEvery int64, recoverWorkers int) ([]volume.Config, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("empty -volumes spec")
	}
	var cfgs []volume.Config
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		name, opts, _ := strings.Cut(entry, "=")
		if name == "" {
			return nil, fmt.Errorf("volume spec %q: empty name", entry)
		}
		sim := core.Config{LogStructured: true, FrontierStart: frontier}
		if opts != "" {
			for _, opt := range strings.Split(opts, "+") {
				switch opt {
				case "defrag":
					d := core.DefaultDefragConfig()
					sim.Defrag = &d
				case "prefetch":
					p := core.DefaultPrefetchConfig()
					sim.Prefetch = &p
				case "cache":
					c := core.DefaultCacheConfig()
					sim.Cache = &c
				default:
					return nil, fmt.Errorf("volume spec %q: unknown option %q (want defrag, prefetch or cache)", entry, opt)
				}
			}
		}
		cfg := volume.Config{
			Name:       name,
			Sim:        sim,
			QueueDepth: queueDepth,
			BatchSize:  batch,
		}
		if journalDir != "" {
			cfg.JournalDir = filepath.Join(journalDir, name)
			cfg.CheckpointEvery = ckptEvery
			cfg.SealEvery = sealEvery
			cfg.RecoverWorkers = recoverWorkers
		}
		cfgs = append(cfgs, cfg)
	}
	return cfgs, nil
}
