package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/persist"
	"repro/internal/serve"
)

// server is a running plan daemon: the loopmapd child process, or an
// in-process serve.Server for the traced run.
type server interface {
	url() string
	stop() error
}

// --- the loopmapd child process ---

type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan struct{} // closed once the process has been waited for
	err  error         // Wait's result, valid after done
}

// daemonArgs are the flags of the workload's configuration.
func daemonArgs(w *workload, dir string, prefill bool) []string {
	if !w.durable {
		return nil
	}
	return []string{
		"-disk-cache-dir", dir,
		"-fsync", "always",
		"-scrub-interval", "-1s",
		"-cache-mb", "1",
		"-resp-cache-mb", "1",
		"-disk-memtable-kb", strconv.Itoa(memtableKB(prefill)),
	}
}

// memtableKB sizes the tier's memtable. The daemon that fills the store
// flushes often, so the measured daemon starts over compacted segments.
// The measured daemon's memtable holds a whole run's writes: on a disk
// mounted with online discard, removing the retired WAL after a flush
// stalls one request for up to a second, and that stall measures the
// disk, not the daemon (see README.md).
func memtableKB(prefill bool) int {
	if prefill {
		return 64
	}
	return 16 << 10
}

// startDaemon starts loopmapd on a free loopback port and returns once
// /readyz answers 200. The daemon logs every request; its log goes to
// the null device, so reading it costs the load generator nothing.
func startDaemon(bin string, args []string) (*daemon, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	// The daemon must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	if err := waitReady(d.base, d.done); err != nil {
		_ = d.stop()
		return nil, fmt.Errorf("%w (%v; run %s by hand to see its log)", err, d.err, bin)
	}
	return d, nil
}

// freePort returns a loopback address no listener holds right now.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

func (d *daemon) url() string { return d.base }

// stop asks for a graceful drain and waits for the process to end.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
		return errors.New("loopmapd did not drain within 30s")
	}
	if d.err != nil {
		return fmt.Errorf("loopmapd: %w", d.err)
	}
	return nil
}

// waitReady polls /readyz every 100µs, so set-up times of a few
// milliseconds are resolved.
func waitReady(base string, exited <-chan struct{}) error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-exited:
			return errors.New("loopmapd exited before /readyz")
		case <-time.After(100 * time.Microsecond):
		}
	}
	return errors.New("loopmapd not ready within 60s")
}

// procStats reads the daemon's CPU time (utime+stime, in clock ticks)
// and its peak resident set (VmHWM, in KiB).
func procStats(pid int) (cpuTicks, hwmKB int64, err error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name: utime and stime are
	// the 14th and 15th fields of the whole line.
	f := strings.Fields(string(stat[strings.LastIndexByte(string(stat), ')')+1:]))
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			hwmKB, _ = strconv.ParseInt(strings.Fields(line)[1], 10, 64)
		}
	}
	return ut + st, hwmKB, nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times on Linux.
const clockTicks = 100

// --- the in-process server of the traced run ---

type inProcess struct {
	srv  *serve.Server
	hs   *http.Server
	base string
	errc chan error
}

// serveConfig mirrors daemonArgs for the in-process server.
func serveConfig(w *workload, dir string, prefill bool, fs persist.FS) serve.Config {
	if !w.durable {
		return serve.Config{}
	}
	return serve.Config{
		DiskCacheDir:      dir,
		FS:                fs,
		Fsync:             "always",
		ScrubInterval:     -1,
		CacheBytes:        1 << 20,
		RespCacheBytes:    1 << 20,
		DiskMemtableBytes: int64(memtableKB(prefill)) << 10,
	}
}

// startInProcess runs a serve.Server behind a loopback listener. wrap,
// if not nil, wraps the server's handler (the traced run times it).
func startInProcess(cfg serve.Config, wrap func(http.Handler) http.Handler) (*inProcess, error) {
	srv := serve.New(cfg)
	if _, err := srv.Recover(context.Background()); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Close()
		return nil, err
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	p := &inProcess{srv: srv, hs: serve.NewHTTPServer(h, serve.ServerTimeouts{}),
		base: "http://" + ln.Addr().String(), errc: make(chan error, 1)}
	go func() { p.errc <- p.hs.Serve(ln) }()
	return p, nil
}

func (p *inProcess) url() string { return p.base }

// stop waits for every handler to return, then closes the plan store.
func (p *inProcess) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := p.hs.Shutdown(ctx)
	if serr := <-p.errc; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := p.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// --- /metrics ---

// scrape reads the unlabelled samples of the Prometheus exposition.
func scrape(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") || strings.Contains(f[0], "{") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

// delta is after − before for one metric name.
func delta(before, after map[string]float64, name string) float64 {
	return after[name] - before[name]
}
