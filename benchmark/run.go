package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pangea/internal/disk"
)

// ssdModel is the one drive model every throttled drive uses: the
// experiment harness's calibrated SSD.
func ssdModel() disk.Config {
	return disk.Config{ReadMBps: 150, WriteMBps: 120, SeekLatency: 150 * time.Microsecond}
}

// clearPangeaEnv unsets every PANGEA_* variable, so the engine runs its
// default configuration and a later change of a default shows up as a
// difference instead of being pre-selected here.
func clearPangeaEnv() {
	for _, kv := range os.Environ() {
		if name, _, _ := strings.Cut(kv, "="); strings.HasPrefix(name, "PANGEA_") {
			os.Unsetenv(name)
		}
	}
}

// gitRevision is `git rev-parse HEAD`, or "unknown" outside a repository.
func gitRevision() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func printHeader() {
	fmt.Printf("# nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), gitRevision())
}

// opWatch is how long one operation, or one teardown step, may take before
// the run is declared hung.
const opWatch = 60 * time.Second

// runCtx is the state of one run of one workload.
type runCtx struct {
	workload string
	seed     uint64
	seconds  time.Duration
	sz       sizing
	dir      string  // this run's drive directory; removed when the run ends
	tr       *tracer // nil on an untraced run

	attempted atomic.Int64
	failed    atomic.Int64
	errMu     sync.Mutex
	errShown  int

	// busy holds, per watched goroutine, when its current operation started
	// (UnixNano; 0 when idle).
	busy     [mainSlot + 1]atomic.Int64
	busyName [mainSlot + 1]atomic.Pointer[string]
	stopWd   chan struct{}
	wdDone   chan struct{}

	e2e   map[string]float64
	layer map[string]float64
}

// fail counts one failed operation and shows the first few causes.
func (rc *runCtx) fail(err error) {
	rc.failed.Add(1)
	rc.errMu.Lock()
	defer rc.errMu.Unlock()
	if rc.errShown < 5 {
		rc.errShown++
		fmt.Fprintf(os.Stderr, "benchmark: %s: failed op: %v\n", rc.workload, err)
	}
}

// op runs one verified operation on watch slot `slot`: it is counted as
// attempted, as failed if fn returns an error, and watched for opWatch. It
// returns fn's wall time in seconds.
func (rc *runCtx) op(slot int, name string, fn func() error) float64 {
	rc.attempted.Add(1)
	start := time.Now()
	rc.busyName[slot].Store(&name)
	rc.busy[slot].Store(start.UnixNano())
	err := fn()
	rc.busy[slot].Store(0)
	if err != nil {
		rc.fail(fmt.Errorf("%s: %w", name, err))
	}
	return time.Since(start).Seconds()
}

// startWatchdog polls the watch slots. An operation still running after
// opWatch cannot be cancelled (the engine's calls take no context), so the
// watchdog reports it as failed, dumps every goroutine's stack, removes the
// run directory and ends the process: a hang becomes a failed run, not a
// stuck pipeline.
func (rc *runCtx) startWatchdog() {
	rc.stopWd, rc.wdDone = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(rc.wdDone)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-rc.stopWd:
				return
			case now := <-tick.C:
				for i := range rc.busy {
					if t := rc.busy[i].Load(); t != 0 && now.UnixNano()-t > int64(opWatch) {
						rc.hung(*rc.busyName[i].Load())
					}
				}
			}
		}
	}()
}

func (rc *runCtx) stopWatchdog() {
	close(rc.stopWd)
	<-rc.wdDone
}

// hung ends the process for an operation that will not return.
func (rc *runCtx) hung(name string) {
	rc.failed.Add(1)
	fmt.Fprintf(os.Stderr, "benchmark: %s: %s still running after %v; goroutine stacks follow\n",
		rc.workload, name, opWatch)
	_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
	os.RemoveAll(rc.dir)
	os.Exit(3)
}

// mainSlot is the watch slot of the goroutine driving the run; the slots
// below it belong to the closed-loop clients.
const mainSlot = 2

// keepGoing reports whether round r (0-based) of a measured loop that began
// at start should run: the loop measures for rc.seconds, but never fewer than
// minRounds nor — on the smoke sizing — more than maxRounds.
func (rc *runCtx) keepGoing(r int, start time.Time) bool {
	if rc.sz.maxRounds > 0 && r >= rc.sz.maxRounds {
		return false
	}
	return r < rc.sz.minRounds || time.Since(start) < rc.seconds
}

// tracedRound reports whether round r is run through the shadow drivers. On a
// traced run every second round is, so that the same state yields both a
// traced and an untraced sample and their ratio is the tracing overhead.
func (rc *runCtx) tracedRound(r int) bool { return rc.tr != nil && r%2 == 1 }

// traceOverhead is the median wall of the traced rounds over that of the
// untraced ones, minus 1; traced[i] says which kind walls[i] is.
func traceOverhead(walls []float64, traced []bool) float64 {
	var with, without []float64
	for i, w := range walls {
		if traced[i] {
			with = append(with, w)
		} else {
			without = append(without, w)
		}
	}
	return ratio(median(with), median(without)) - 1
}

// countTrue is how many of bs are set.
func countTrue(bs []bool) (n int) {
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// setupMedian builds the workload's state several times, each from nothing in
// its own directory, tearing all but the last down again, and returns the
// last state with the median build time in seconds: setup_s. It builds
// rc.sz.setups times at least, and goes on — a cheap set-up is a noisy one —
// until the builds have taken setupBudget or there are maxSetups of them.
func setupMedian[T any](rc *runCtx, build func(dir string) (T, error), teardown func(T)) (T, float64, error) {
	var st T
	var times []float64
	for i, begin := 0, time.Now(); i < rc.sz.setups || (i < maxSetups && time.Since(begin) < setupBudget); i++ {
		if i > 0 {
			teardown(st)
		}
		// A torn-down state is garbage worth hundreds of MiB. Collect it
		// outside the timed build, so that every build — and the measured
		// loop after the last — starts from the same heap.
		runtime.GC()
		debug.FreeOSMemory()
		start := time.Now()
		var err error
		st, err = build(filepath.Join(rc.dir, fmt.Sprintf("setup%d", i)))
		if err != nil {
			return st, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return st, median(times), nil
}

const (
	setupBudget = 2 * time.Second
	maxSetups   = 15
)

// parallel runs fn(0..n-1) on n goroutines and returns the first error.
func parallel(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

const mb = 1e6 // the MB of every MB and MB/s metric
