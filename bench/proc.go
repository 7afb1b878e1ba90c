package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// children tracks every live child so an interrupt, a failed check or a
// panic on the main goroutine never leaves an smrd behind. Children are
// also started with Pdeathsig, which covers the driver being killed
// outright.
var children struct {
	mu   sync.Mutex
	live map[*child]struct{}
}

func killAllChildren() {
	children.mu.Lock()
	live := make([]*child, 0, len(children.live))
	for c := range children.live {
		live = append(live, c)
	}
	children.mu.Unlock()
	for _, c := range live {
		c.stop(syscall.SIGKILL)
	}
}

// onInterrupt kills every child and removes the work directory when the
// driver is interrupted, then exits non-zero.
func onInterrupt(cleanup func()) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-ch
		killAllChildren()
		cleanup()
		os.Exit(130)
	}()
}

// usage is what a process consumed: CPU as Wait4 (or getrusage)
// reported it, and its peak resident set.
type usage struct {
	UserS, SysS float64
	// MaxRSSKiB is VmHWM of /proc/<pid>/status, read just before the
	// process is stopped. Wait4's ru_maxrss is no use for a child: Go
	// starts children with vfork, so it includes the parent's resident
	// set at the moment of the exec.
	MaxRSSKiB int64
}

func (u usage) cpuS() float64 { return u.UserS + u.SysS }

func usageOf(ps *os.ProcessState) usage {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return usage{}
	}
	return usage{UserS: tvS(ru.Utime), SysS: tvS(ru.Stime)}
}

// peakRSSKiB reads a live process's resident-set high-water mark; 0 if
// the process is gone.
func peakRSSKiB(pid int) int64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kib
		}
	}
	return 0
}

func tvS(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// selfUsage is the driver's own resource usage so far.
func selfUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	return usage{UserS: tvS(ru.Utime), SysS: tvS(ru.Stime), MaxRSSKiB: peakRSSKiB(os.Getpid())}
}

// child is one running smrd.
type child struct {
	cmd     *exec.Cmd
	started time.Time
	addr    string // from the "listening on" line
	metrics string // from the "metrics on" line, "" without -metrics-addr
	// journalDir is the -journal-dir the benchmark gave the child, "" for
	// in-memory volumes.
	journalDir string

	mu    sync.Mutex
	lines []string // everything the child printed, for diagnostics and the recovery line

	readDone chan struct{}
	waitOnce sync.Once
	used     usage
	waitErr  error
}

var (
	listenRe  = regexp.MustCompile(`listening on (\S+)`)
	metricsRe = regexp.MustCompile(`metrics on http://(\S+)/metrics`)
)

// startSmrd execs the built smrd with -listen 127.0.0.1:0 plus args and
// returns once the daemon printed its bound address (recovery, if any,
// is complete by then). The ephemeral port is parsed from that line.
func startSmrd(bin string, args ...string) (*child, error) {
	c := &child{readDone: make(chan struct{})}
	c.cmd = exec.Command(bin, append([]string{"-listen", "127.0.0.1:0"}, args...)...)
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c.cmd.Stderr = c.cmd.Stdout
	c.started = time.Now()
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	children.mu.Lock()
	if children.live == nil {
		children.live = make(map[*child]struct{})
	}
	children.live[c] = struct{}{}
	children.mu.Unlock()

	ready := make(chan struct{})
	go c.readLines(out, ready)
	select {
	case <-ready:
		return c, nil
	case <-c.readDone:
		c.stop(syscall.SIGKILL)
		return nil, fmt.Errorf("smrd %s exited before listening:\n%s", strings.Join(args, " "), c.output())
	case <-time.After(60 * time.Second):
		c.stop(syscall.SIGKILL)
		return nil, fmt.Errorf("smrd %s did not listen within 60s:\n%s", strings.Join(args, " "), c.output())
	}
}

// readLines drains the child's output for its whole life (a full pipe
// would stall the daemon) and closes ready at the listening line.
func (c *child) readLines(r io.Reader, ready chan struct{}) {
	defer close(c.readDone)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		c.mu.Lock()
		c.lines = append(c.lines, line)
		c.mu.Unlock()
		if m := metricsRe.FindStringSubmatch(line); m != nil {
			c.metrics = m[1]
		}
		if m := listenRe.FindStringSubmatch(line); m != nil && c.addr == "" {
			c.addr = m[1]
			close(ready)
		}
	}
}

func (c *child) output() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return strings.Join(c.lines, "\n")
}

// line returns the first output line containing substr, "" if none.
func (c *child) line(substr string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, l := range c.lines {
		if strings.Contains(l, substr) {
			return l
		}
	}
	return ""
}

// stop signals the child (SIGKILL for a crash, SIGTERM for a graceful
// shutdown), reaps it and returns its resource usage. Idempotent: a
// second call returns the first call's result.
func (c *child) stop(sig syscall.Signal) (usage, error) {
	c.waitOnce.Do(func() {
		peak := peakRSSKiB(c.cmd.Process.Pid)
		_ = c.cmd.Process.Signal(sig) // already-exited is fine; Wait reports the outcome
		// A daemon that ignores SIGTERM must not hang the driver.
		hung := time.AfterFunc(30*time.Second, func() { _ = c.cmd.Process.Kill() })
		defer hung.Stop()
		<-c.readDone // Wait closes the pipe; finish reading first
		err := c.cmd.Wait()
		c.used = usageOf(c.cmd.ProcessState)
		c.used.MaxRSSKiB = peak
		if sig == syscall.SIGTERM && err != nil {
			c.waitErr = fmt.Errorf("smrd shutdown: %w\n%s", err, c.output())
		}
		children.mu.Lock()
		delete(children.live, c)
		children.mu.Unlock()
	})
	return c.used, c.waitErr
}

// goBuild builds the named packages of the repository into binDir with
// the checkout-local build cache.
func goBuild(root, binDir string, pkgs ...string) error {
	if err := os.MkdirAll(binDir, 0o777); err != nil {
		return err
	}
	cmd := exec.Command("go", append([]string{"build", "-o", binDir + string(filepath.Separator)}, pkgs...)...)
	cmd.Dir = root
	cmd.Env = append(os.Environ(),
		"GOCACHE="+filepath.Join(root, buildDirName, "gocache"),
		"GOWORK=off", "GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build %s: %w\n%s", strings.Join(pkgs, " "), err, out)
	}
	return nil
}

// copyDir copies the regular files of src (one level: a volume's
// journal directory is flat) into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o777); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o666); err != nil {
			return err
		}
	}
	return nil
}
