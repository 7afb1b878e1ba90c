package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"

	"smrseek/internal/core"
	"smrseek/internal/journal"
	"smrseek/internal/report"
	"smrseek/internal/stl"
	"smrseek/internal/trace"
	"smrseek/internal/workload"
)

// DurabilityWorkloads are the traces the crash/recovery table covers:
// one read-mostly and one write-heavy catalog workload.
var DurabilityWorkloads = []string{"hm_1", "w91"}

// Durability prints the crash-consistency extension: each workload runs
// under the write-ahead journal, is crashed at several points
// (including a torn final record), and recovered; the table reports
// what replay found and whether the recovered translation state matches
// the live state bit for bit.
func Durability(ctx context.Context, w io.Writer, scale float64) error {
	tb := report.NewTable("Extension: write-ahead journal crash recovery",
		"workload", "variant", "crash after", "replayed", "torn tail", "from ckpt", "state match")
	for _, name := range DurabilityWorkloads {
		p, err := workload.ByName(name)
		if err != nil {
			return err
		}
		pl := preloaded(p, scale)
		recs, frontier := pl.Records(), pl.MaxLBA()
		variants := []struct {
			label string
			cfg   func() core.Config
		}{
			{"LS", func() core.Config {
				return core.Config{LogStructured: true, FrontierStart: frontier}
			}},
			{"LS+defrag", func() core.Config {
				d := core.DefaultDefragConfig()
				return core.Config{LogStructured: true, FrontierStart: frontier, Defrag: &d}
			}},
		}
		for _, v := range variants {
			// A crash-free probe sizes the crash points to the run.
			total, _, err := durabilityRun(ctx, v.cfg(), recs, 0)
			if err != nil {
				return fmt.Errorf("%s/%s probe: %w", name, v.label, err)
			}
			for _, after := range []int64{total / 3, total} {
				if after < 1 {
					after = 1
				}
				_, row, err := durabilityRun(ctx, v.cfg(), recs, after)
				if err != nil {
					return fmt.Errorf("%s/%s crash@%d: %w", name, v.label, after, err)
				}
				tb.AddRow(name, v.label, after, row.replayed,
					fmt.Sprintf("%v", row.torn), fmt.Sprintf("%v", row.fromCkpt), row.match)
			}
		}
	}
	return tb.Render(w)
}

type durabilityRow struct {
	replayed int64
	torn     bool
	fromCkpt bool
	match    string
}

// durabilityRun plays the workload under a journal in a temp directory.
// With crashAfter 0 it runs to completion and returns the append count.
// Otherwise it crashes the run at that append (torn write), recovers,
// and compares the recovered layer against the live one.
func durabilityRun(ctx context.Context, cfg core.Config, recs []trace.Record, crashAfter int64) (int64, durabilityRow, error) {
	dir, err := os.MkdirTemp("", "smrseek-wal-")
	if err != nil {
		return 0, durabilityRow{}, err
	}
	defer os.RemoveAll(dir)
	log, err := journal.Open(dir, cfg.FrontierStart)
	if err != nil {
		return 0, durabilityRow{}, err
	}
	defer log.Close()
	if crashAfter > 0 {
		log.CrashAfter(crashAfter, 12)
	}
	cfg.Journal = &core.JournalConfig{Log: log, CheckpointEvery: 2048}
	sim, err := core.NewSimulator(cfg)
	if err != nil {
		return 0, durabilityRow{}, err
	}
	st, err := sim.RunContext(ctx, trace.NewSliceReader(recs))
	if crashAfter == 0 {
		return st.Durability.JournalAppends, durabilityRow{}, err
	}
	if !errors.Is(err, journal.ErrCrashed) {
		if err == nil {
			err = fmt.Errorf("crash point %d never fired", crashAfter)
		}
		return 0, durabilityRow{}, err
	}
	recovered, rst, err := stl.RecoverDir(dir)
	if err != nil {
		return 0, durabilityRow{}, err
	}
	row := durabilityRow{replayed: rst.Replayed, torn: rst.TornTail, fromCkpt: rst.FromCheckpoint, match: "yes"}
	live := sim.LS()
	if diff := live.Map().Diff(recovered.Map()); diff != "" ||
		live.Frontier() != recovered.Frontier() || live.LogSectors() != recovered.LogSectors() {
		row.match = "NO"
	}
	if err := recovered.Map().CheckInvariants(); err != nil {
		row.match = "NO (invariants: " + err.Error() + ")"
	}
	return 0, row, nil
}
