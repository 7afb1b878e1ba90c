// Command traceinfo prints Table-I style characteristics for a named
// synthetic workload or a trace file, plus write-ordering statistics
// (mis-ordered write fraction, adjacency profile).
//
// Examples:
//
//	traceinfo -list
//	traceinfo -workload hm_1
//	traceinfo -trace disk0.csv -format msr
package main

import (
	"flag"
	"fmt"
	"os"

	"smrseek"
	"smrseek/internal/analysis"
	"smrseek/internal/report"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "traceinfo:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("traceinfo", flag.ContinueOnError)
	var (
		name      = fs.String("workload", "", "named synthetic workload")
		scale     = fs.Float64("scale", 0.5, "workload scale")
		tracePath = fs.String("trace", "", "trace file to characterize")
		format    = fs.String("format", "cp", `trace format: "msr", "cp" or "bin"`)
		diskNum   = fs.Int("disk", -1, "MSR disk number filter (-1 = all)")
		list      = fs.Bool("list", false, "list available workloads and exit")
		fit       = fs.Bool("fit", false, "also print a synthetic workload profile fitted to the trace")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, n := range smrseek.Workloads() {
			fmt.Println(n)
		}
		return nil
	}

	var recs []smrseek.Record
	label := *name
	switch {
	case *name != "" && *tracePath != "":
		return fmt.Errorf("pass -workload or -trace, not both")
	case *name != "":
		p, err := smrseek.Workload(*name)
		if err != nil {
			return err
		}
		recs = p.Generate(*scale)
	case *tracePath != "":
		f, err := os.Open(*tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		r, err := smrseek.OpenTrace(f, smrseek.TraceFormat(*format), *diskNum)
		if err != nil {
			return err
		}
		recs, err = smrseek.ReadAll(r)
		if err != nil {
			return err
		}
		label = *tracePath
	default:
		return fmt.Errorf("pass -workload NAME or -trace FILE (or -list)")
	}

	c := smrseek.Characterize(recs)
	mis, writes := smrseek.MisorderedWrites(recs)
	prof := analysis.SequentialityProfile(recs)

	tb := report.NewTable(fmt.Sprintf("characteristics: %s", label), "metric", "value")
	tb.AddRow("operations", report.HumanCount(c.Ops))
	tb.AddRow("read count", report.HumanCount(c.ReadCount))
	tb.AddRow("write count", report.HumanCount(c.WriteCount))
	tb.AddRow("read volume", fmt.Sprintf("%.2f GB", c.ReadGB()))
	tb.AddRow("written volume", fmt.Sprintf("%.2f GB", c.WrittenGB()))
	tb.AddRow("mean write size", fmt.Sprintf("%.1f KB", c.MeanWriteKB))
	tb.AddRow("mean read size", fmt.Sprintf("%.1f KB", c.MeanReadKB))
	tb.AddRow("write intensity", fmt.Sprintf("%.2f", c.WriteIntensity()))
	tb.AddRow("max LBA", c.MaxLBA)
	if writes > 0 {
		tb.AddRow("mis-ordered writes (256KB)", fmt.Sprintf("%s (%.2f%%)",
			report.HumanCount(mis), 100*float64(mis)/float64(writes)))
	}
	tb.AddRow("ascending-adjacent writes", report.HumanCount(prof.AscendingAdjacent))
	tb.AddRow("descending-adjacent writes", report.HumanCount(prof.DescendingAdjacent))
	tb.AddRow("longest descending run", prof.LongestDescending)
	if err := tb.Render(os.Stdout); err != nil {
		return err
	}
	if *fit {
		p, err := smrseek.FitWorkload(label+"-fit", recs, 1)
		if err != nil {
			return err
		}
		fmt.Printf("\nfitted profile: %+v\n", p)
	}
	return nil
}
