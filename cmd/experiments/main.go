// Command experiments regenerates the paper's tables and figures from
// the synthetic workload catalog.
//
// Usage:
//
//	experiments [-scale 0.5] table1 fig2 fig3 fig4 fig5 fig7 fig8 fig10 fig11 waf cleaning timeamp durability
//	experiments all
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"smrseek"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	scale := fs.Float64("scale", 0, "workload scale (0 = default 0.5)")
	timeout := fs.Duration("timeout", 0, "abort each experiment after this duration (0 = no limit)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	names := fs.Args()
	if len(names) == 0 {
		return fmt.Errorf(`pass experiment names (table1 fig2 fig3 fig4 fig5 fig7 fig8 fig10 fig11 waf cleaning timeamp durability) or "all"`)
	}
	for _, name := range names {
		if err := runExperiment(name, out, *scale, *timeout); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	return nil
}

// runExperiment runs one experiment under its own timeout, so a stuck
// figure cannot starve the rest of the list.
func runExperiment(name string, out io.Writer, scale float64, timeout time.Duration) error {
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	return smrseek.RunExperimentContext(ctx, out, name, scale)
}
