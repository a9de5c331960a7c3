package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of sorted by linear
// interpolation; sorted must be ascending and non-empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs, or 0 when there are no samples (a metric of a class
// the workload never sends).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(sortedCopy(xs), 0.5)
}

// tail returns the highest percentile that still has at least ten
// samples beyond it (p99 from 1,000 samples, p90 from 100), with the
// percentile it chose; below 20 samples there is no tail to report and
// it returns the median.
func tail(xs []float64) (value float64, pct float64) {
	if len(xs) < 20 {
		return median(xs), 50
	}
	s := sortedCopy(xs)
	pct = 100 * (1 - 10/float64(len(s)))
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if pct >= p {
			pct = p
			break
		}
	}
	return quantile(s, pct/100), pct
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }

// spin times a fixed pure-CPU loop. It measures the machine, not the
// program: a run whose spin is slow was disturbed.
func spin() time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 40_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink = x
	return time.Since(start)
}

var spinSink uint64

// yardstick is a fixed piece of the benchmark's own work, timed next to
// every set-up so that setup_s can be reported at one machine speed.
// The sandbox the benchmark was sized on runs memory-bound work up to
// 1.7× slower for minutes at a time (pure ALU work not at all:
// bench.spin_ms), the contract gates setup_s at a quarter, and identical
// code must not fail its own gate. The work has the two memory
// behaviours a set-up has — allocating and hashing (building the oracle's
// edge map from 131,072 fixed edges) and dependent loads (a walk across
// 32 MB) — and nothing of the program under test in it, so a change to
// the program cannot move it. Over twenty minutes in which the raw
// set-up time of one commit went from 0.72 s to 0.43 s and back to
// 0.62 s, set-up over yardstick varied by 4–6% run to run; over eight
// ten-run sets its medians are within 15% of each other where the raw
// ones are 66% apart (CALIBRATION.md).
type yardstick struct {
	edges []edge
	perm  []uint32 // one cycle through 1<<23 entries
}

// yardNominal is what the yardstick takes on the sizing machine at its
// calmest: setup_s is set-up time over yardstick time, times this.
const yardNominal = 50 * time.Millisecond

// theYardstick builds the fixed inputs once per process; they do not
// depend on -seed and run does not change them.
var theYardstick = sync.OnceValue(newYardstick)

func newYardstick() *yardstick {
	y := &yardstick{
		edges: keyed(rmat(rand.New(rand.NewSource(1)), 14, 8<<14)),
		perm:  make([]uint32, 1<<23),
	}
	for i := range y.perm {
		y.perm[i] = uint32(i)
	}
	// Sattolo's shuffle leaves a single cycle, so a walk never falls
	// into a short loop that fits a cache.
	r := rand.New(rand.NewSource(2))
	for i := len(y.perm) - 1; i > 0; i-- {
		j := r.Intn(i)
		y.perm[i], y.perm[j] = y.perm[j], y.perm[i]
	}
	return y
}

// run does the work once and returns the geometric mean of the times of
// its two halves.
func (y *yardstick) run() time.Duration {
	start := time.Now()
	m := newModel()
	m.add(y.edges)
	build := time.Since(start)
	start = time.Now()
	j := uint32(m.edges)
	for i := 0; i < 500_000; i++ {
		j = y.perm[j]
	}
	walk := time.Since(start)
	spinSink += uint64(j)
	return time.Duration(math.Sqrt(float64(build) * float64(walk)))
}

// setups collects a run's set-up times with a yardstick run before each
// and one after the last.
type setups struct {
	y          *yardstick
	took, yard []float64 // seconds
}

// next runs the yardstick; the caller then sets the system up and
// reports how long that took with done.
func (s *setups) next()                   { s.yard = append(s.yard, seconds(s.y.run())) }
func (s *setups) done(took time.Duration) { s.took = append(s.took, seconds(took)) }

// book closes the series and writes setup_s: the median set-up over the
// median yardstick, at the yardstick's nominal speed. The raw median and
// the yardstick are reported beside it.
func (s *setups) book(o *outcome) {
	s.next()
	raw, yard := median(s.took), median(s.yard)
	o.Values["bench.setup_raw_s"] = raw
	o.Values["bench.yardstick_ms"] = 1000 * yard
	o.Values["setup_s"] = raw / yard * yardNominal.Seconds()
	o.phase(fmt.Sprintf("%d set-ups", len(s.took)))
}

// selfCPU is this process's user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU is the user+system CPU time of pid so far, from
// /proc/pid/stat (fields 14 and 15, in clock ticks of 1/100 s).
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted
	// from the closing parenthesis.
	rest := string(raw)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad cpu fields in /proc/%d/stat", pid)
	}
	const tick = time.Second / 100
	return time.Duration(ut+st) * tick, nil
}

// procPeakRSS is the peak resident set of pid in MB (VmHWM).
func procPeakRSS(pid int) (float64, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	for _, e := range ents {
		if e.IsDir() {
			n, err := dirBytes(dir + "/" + e.Name())
			if err != nil {
				return 0, err
			}
			total += n
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}
