package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailCount is the least sample count for which percentile p has at least
// ten samples beyond it.
func tailCount(p float64) int { return int(math.Ceil(10/(1-p/100) - 1e-9)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// allocBytes reads the cumulative bytes allocated on the heap. Unlike
// runtime.ReadMemStats it does not stop the world, so it can bracket
// single calls.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MB; 0
// where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// cpuTicks reads the machine's CPU time counters from /proc/stat: the
// ticks stolen by the hypervisor and the total; zeros where unavailable.
func cpuTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	// user nice system idle iowait irq softirq steal; the guest fields
	// after them are already counted in user and nice.
	fields := strings.Fields(line)
	for i, f := range fields[1:min(len(fields), 9)] {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// stealNote describes the CPU share the hypervisor took between two
// cpuTicks readings, which inflates every wall-clock metric of the run.
func stealNote(steal0, total0 uint64) string {
	steal, total := cpuTicks()
	if total <= total0 {
		return "host CPU steal during measurement: unknown"
	}
	return fmt.Sprintf("host CPU steal during measurement: %.1f%%", 100*float64(steal-steal0)/float64(total-total0))
}

// metric is one reported figure with its unit and sample count.
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
	Alias string // the workload-specific name it stands for (e.g. read_p99_ms), if any
}
