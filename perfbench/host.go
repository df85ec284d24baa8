package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// hostSample is one reading of the machine's CPU counters, in clock
// ticks: all busy time, steal, all time, and the daemon's and this
// process's own CPU time.
type hostSample struct {
	busy, steal, total int64
	daemon, self       int64
}

// readHost reads /proc/stat and the two processes' CPU times. pid 0
// means there is no daemon process (the traced run).
func readHost(pid int) (hostSample, error) {
	var h hostSample
	stat, err := os.ReadFile("/proc/stat")
	if err != nil {
		return h, err
	}
	line, _, _ := strings.Cut(string(stat), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return h, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	var v [8]int64 // user nice system idle iowait irq softirq steal
	for i := range v {
		if v[i], err = strconv.ParseInt(f[i+1], 10, 64); err != nil {
			return h, fmt.Errorf("/proc/stat: %w", err)
		}
	}
	h.busy = v[0] + v[1] + v[2] + v[5] + v[6]
	h.steal = v[7]
	for _, x := range v {
		h.total += x
	}
	if h.self, _, err = procStats(os.Getpid()); err != nil {
		return h, err
	}
	if pid != 0 {
		if h.daemon, _, err = procStats(pid); err != nil {
			return h, err
		}
	}
	return h, nil
}

// Thresholds above which a run is flagged as contended: other processes
// took more than a tenth of the machine, or the hypervisor stole more
// than a twentieth of it.
const (
	contendedOtherPct = 10
	contendedStealPct = 5
)

// reportHost prints the CPU that processes other than the daemon and the
// benchmark used during the measured phase, and the steal time.
func reportHost(h0, h1 hostSample) {
	total := float64(h1.total - h0.total)
	if total <= 0 {
		return
	}
	other := (h1.busy - h0.busy) - (h1.daemon - h0.daemon) - (h1.self - h0.self)
	otherPct := 100 * float64(max(other, 0)) / total
	stealPct := 100 * float64(h1.steal-h0.steal) / total
	note("host: other_cpu=%.1f%% steal=%.1f%% contended=%t",
		otherPct, stealPct, otherPct > contendedOtherPct || stealPct > contendedStealPct)
}
