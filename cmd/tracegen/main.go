// Command tracegen emits a named synthetic workload as a trace file, in
// either MSR Cambridge CSV or the CloudPhysics-style CSV, so the
// generated workloads can feed external tools (or round-trip back into
// smrsim -trace).
//
// Example:
//
//	tracegen -workload w91 -scale 1 -format cp -o w91.csv
package main

import (
	"flag"
	"fmt"
	"os"

	"smrseek"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	var (
		name   = fs.String("workload", "", "named synthetic workload to generate")
		scale  = fs.Float64("scale", 1.0, "workload scale (multiplies base op count)")
		format = fs.String("format", "cp", `output format: "msr", "cp" or "bin"`)
		out    = fs.String("o", "-", `output file ("-" for stdout)`)
		list   = fs.Bool("list", false, "list available workloads and exit")
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
	if *name == "" {
		return fmt.Errorf("pass -workload NAME (or -list); workloads: %v", smrseek.Workloads())
	}
	p, err := smrseek.Workload(*name)
	if err != nil {
		return err
	}
	recs := p.Generate(*scale)

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := smrseek.WriteTrace(w, smrseek.TraceFormat(*format), recs); err != nil {
		return err
	}
	if *out != "-" {
		fmt.Fprintf(os.Stderr, "tracegen: wrote %d records to %s\n", len(recs), *out)
	}
	return nil
}
