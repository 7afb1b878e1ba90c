// Command smrload drives a running smrd daemon with a trace replayed
// over N concurrent connections, optionally throttled to a target QPS,
// and reports throughput, shed (overloaded) counts and latency
// percentiles measured at the client.
//
// Examples:
//
//	smrload -addr 127.0.0.1:4590 -volumes a,b -workload w91 -conns 8
//	smrload -addr 127.0.0.1:4590 -volumes a -trace t.csv -format cp -qps 5000
//
// Each connection replays the full trace in order against one volume
// (connections round-robin over -volumes), so with -conns equal to the
// volume count every volume sees exactly the trace the simulator would
// see in a direct run. Overloaded responses are counted as sheds and
// the record is retried, so backpressure shows up as latency + shed
// count, not as lost trace records. -window sets how many requests each
// connection keeps in flight; the default of 1 is the synchronous
// client.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"smrseek"
	"smrseek/internal/metrics"
	"smrseek/internal/report"
	"smrseek/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "smrload:", err)
		os.Exit(1)
	}
}

// tally aggregates results across connections. Latencies are observed
// in microseconds so the log2 histogram buckets resolve sub-millisecond
// behavior.
type tally struct {
	mu    sync.Mutex
	lat   *metrics.Histogram
	ops   int64
	sheds int64
}

func (t *tally) observe(d time.Duration, sheds int64) {
	t.mu.Lock()
	t.lat.Observe(d.Microseconds())
	t.ops++
	t.sheds += sheds
	t.mu.Unlock()
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("smrload", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", "127.0.0.1:4590", "smrd daemon address")
		volumes      = fs.String("volumes", "v0", "comma-separated volume names; connections round-robin over them")
		workloadName = fs.String("workload", "w91", "named synthetic workload to replay (see traceinfo -list)")
		scale        = fs.Float64("scale", 0.05, "workload scale")
		tracePath    = fs.String("trace", "", "trace file to replay instead of a named workload")
		format       = fs.String("format", "cp", `trace format: "msr", "cp" or "bin"`)
		diskNum      = fs.Int("disk", -1, "MSR disk number filter (-1 = all)")
		conns        = fs.Int("conns", 4, "concurrent connections")
		qps          = fs.Float64("qps", 0, "aggregate target ops/sec across all connections (0 = unthrottled)")
		maxRetries   = fs.Int("max-retries", 1000, "per-record retry budget when the server sheds with overloaded")
		window       = fs.Int("window", 1, "in-flight requests per connection (1 = synchronous; the server may clamp larger windows)")
	)
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *conns < 1 {
		return fmt.Errorf("-conns must be >= 1")
	}
	if *window < 1 {
		return fmt.Errorf("-window %d must be >= 1", *window)
	}
	if *scale <= 0 {
		return fmt.Errorf("-scale %v must be positive", *scale)
	}
	if *qps < 0 {
		return fmt.Errorf("-qps %v must be >= 0", *qps)
	}
	if *maxRetries < 0 {
		return fmt.Errorf("-max-retries %d must be >= 0", *maxRetries)
	}
	vols := strings.Split(*volumes, ",")
	for i := range vols {
		if vols[i] = strings.TrimSpace(vols[i]); vols[i] == "" {
			return fmt.Errorf("empty volume name in -volumes %q", *volumes)
		}
	}

	pre, name, err := loadTrace(*workloadName, *scale, *tracePath, *format, *diskNum)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "smrload: replaying %s (%s records) to %s over %d conns",
		name, report.HumanCount(int64(pre.Len())), *addr, *conns)
	if *qps > 0 {
		fmt.Fprintf(out, " at %.0f qps", *qps)
	}
	if *window > 1 {
		fmt.Fprintf(out, " pipelined (window %d)", *window)
	}
	fmt.Fprintln(out)

	// Pace each connection so the aggregate hits -qps.
	var interval time.Duration
	if *qps > 0 {
		interval = time.Duration(float64(*conns) / *qps * float64(time.Second))
	}

	agg := &tally{lat: metrics.NewHistogram()}
	errs := make(chan error, *conns)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < *conns; i++ {
		wg.Add(1)
		go func(vol string) {
			defer wg.Done()
			errs <- drive(*addr, vol, pre, agg, interval, *maxRetries, *window)
		}(vols[i%len(vols)])
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return render(out, agg, elapsed)
}

func render(out io.Writer, agg *tally, elapsed time.Duration) error {
	agg.mu.Lock()
	defer agg.mu.Unlock()
	tput := float64(agg.ops) / elapsed.Seconds()
	tbl := report.NewTable("load summary",
		"ops", "elapsed", "throughput", "sheds", "p50 µs", "p95 µs", "p99 µs")
	tbl.AddRow(
		report.HumanCount(agg.ops),
		elapsed.Round(time.Millisecond).String(),
		fmt.Sprintf("%.0f ops/s", tput),
		report.HumanCount(agg.sheds),
		agg.lat.Quantile(0.50),
		agg.lat.Quantile(0.95),
		agg.lat.Quantile(0.99),
	)
	return tbl.Render(out)
}

// loadTrace preloads the requested records once; every connection
// replays the shared arena through its own cursor.
func loadTrace(workload string, scale float64, path, format string, diskNum int) (*trace.Preloaded, string, error) {
	if path == "" {
		p, err := smrseek.Workload(workload)
		if err != nil {
			return nil, "", err
		}
		return trace.PreloadRecords(p.Generate(scale)), workload, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	r, err := smrseek.OpenTrace(f, smrseek.TraceFormat(format), diskNum)
	if err != nil {
		return nil, "", err
	}
	pre, err := trace.Preload(r)
	if err != nil {
		return nil, "", err
	}
	return pre, path, nil
}
