// Command perfbench is the benchmark of the loopmapd plan daemon.
//
//	perfbench -daemon <loopmapd binary> -workdir <dir> \
//	    --workload hot|cold|durable --seed N --seconds S --trace 0|1
//
// With --trace 0 it starts the real loopmapd binary as a child process
// and drives it from two closed-loop clients; the daemon's CPU time and
// peak RSS are its own. With --trace 1 it runs the same workload against
// an in-process server and times each layer from the outside. Either way
// every response is checked against golden.txt, and the last line of
// standard output is the JSON result. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/serve"
)

func main() {
	name := flag.String("workload", "", "hot, cold or durable")
	seed := flag.Int64("seed", 1, "seed of the workload's request lists")
	seconds := flag.Int("seconds", 10, "length of the measured phase")
	traceFlag := flag.Int("trace", 0, "1 runs in-process and reports per-layer metrics")
	bin := flag.String("daemon", "", "loopmapd binary (needed with --trace 0)")
	workdir := flag.String("workdir", os.TempDir(), "directory for the run's durable store")
	genGolden := flag.String("gen-golden", "", "write the golden digest table to this file and exit")
	flag.Parse()

	if *genGolden != "" {
		if err := writeGolden(*genGolden); err != nil {
			fail(err)
		}
		return
	}
	golden, err := loadGolden()
	if err != nil {
		fail(err)
	}
	w, err := makeWorkload(*name, *seed)
	if err != nil {
		fail(err)
	}
	runDir := filepath.Join(*workdir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.RemoveAll(runDir); err != nil {
		fail(err)
	}
	defer os.RemoveAll(runDir)

	d := time.Duration(*seconds) * time.Second
	var res *result
	switch *traceFlag {
	case 0:
		if *bin == "" {
			fail(fmt.Errorf("-daemon is required with --trace 0"))
		}
		res, err = runDaemon(w, *bin, runDir, d, golden)
	case 1:
		res, err = runTraced(w, runDir, d, golden)
	default:
		err = fmt.Errorf("--trace must be 0 or 1")
	}
	if err != nil {
		_ = os.RemoveAll(runDir)
		fail(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// note prints a diagnostic line before the result line.
func note(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

// setupRuns is how many times a run at least sets the daemon up;
// setup_s is the median.
const setupRuns = 9

// rig starts the workload's server from one fixed state every time: an
// empty daemon, or for durable a warm restart over a copy of the store
// the prefill left behind.
type rig struct {
	w      *workload
	golden map[string]uint64
	dir    string // the run's directory: store/ and pristine/
	start  func(storeDir string, prefill bool) (server, error)
}

func (g *rig) store() string    { return filepath.Join(g.dir, "store") }
func (g *rig) pristine() string { return filepath.Join(g.dir, "pristine") }

// prefill fills the durable store once, untimed, and keeps a copy of it.
func (g *rig) prefill() error {
	if g.w.prefill == nil {
		return nil
	}
	s, err := g.start(g.pristine(), true)
	if err != nil {
		return err
	}
	err = issueAll(s.url(), g.w.prefill, g.golden)
	if serr := s.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return fmt.Errorf("prefill: %w", err)
	}
	return nil
}

// setUp starts the server once and returns it with its set-up time:
// start → /readyz, plus the hot warm pass. Restoring the durable store
// from its copy is not timed.
func (g *rig) setUp() (server, time.Duration, error) {
	if g.w.prefill != nil {
		if err := os.RemoveAll(g.store()); err != nil {
			return nil, 0, err
		}
		if err := copyDir(g.pristine(), g.store()); err != nil {
			return nil, 0, err
		}
	}
	t0 := time.Now()
	s, err := g.start(g.store(), false)
	if err != nil {
		return nil, 0, err
	}
	if g.w.warm != nil {
		if err := issueAll(s.url(), [][]request{g.w.warm}, g.golden); err != nil {
			_ = s.stop()
			return nil, 0, err
		}
	}
	return s, time.Since(t0), nil
}

func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
}

// issueAll sends each list in order from its own client and checks
// every response.
func issueAll(base string, lists [][]request, golden map[string]uint64) error {
	errs := make([]error, len(lists))
	var wg sync.WaitGroup
	for i, l := range lists {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ck := newChecker(golden)
			for _, r := range prepare(l) {
				if _, err := postPlan(base, r, ck); err != nil {
					errs[i] = err
					return
				}
			}
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

// cyclePasses splits a cycling workload's measured time over fresh
// daemons. Throughput of hot, measured on one daemon for 20 s, spread
// about three times as much between runs as when measured on four
// daemons for 5 s each: part of the variation comes with the daemon's
// start, and more starts average it out.
const cyclePasses = 4

// pass is one measured phase on one daemon.
type pass struct {
	lr            *loadResult
	before, after map[string]float64
	host0, host1  hostSample
	hwmKB         int64
}

// postPlan sends one plan request outside the measured phase and checks
// the response.
func postPlan(base string, r prepared, ck *checker) ([]byte, error) {
	resp, err := http.Post(base+"/v1/plan", "application/json", bytes.NewReader(r.body))
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	return body, ck.check(r, resp.StatusCode, body)
}

// runDaemon is the untraced run against the loopmapd child process. It
// sets the daemon up setupRuns-1 times, then measures passes — each on a
// freshly set-up daemon, each running the lists to their end (or for d,
// d/cyclePasses for a cycling workload) — until d of measured time has
// accumulated.
func runDaemon(w *workload, bin, runDir string, d time.Duration, golden map[string]uint64) (*result, error) {
	g := &rig{w: w, golden: golden, dir: runDir, start: func(dir string, prefill bool) (server, error) {
		return startDaemon(bin, daemonArgs(w, dir, prefill))
	}}
	if err := g.prefill(); err != nil {
		return nil, err
	}
	var setups []time.Duration
	for i := 0; i < setupRuns-1; i++ {
		s, t, err := g.setUp()
		if err != nil {
			return nil, err
		}
		setups = append(setups, t)
		if err := s.stop(); err != nil {
			return nil, err
		}
	}
	var passes []pass
	var measured time.Duration
	for len(passes) == 0 || measured < d {
		s, t, err := g.setUp()
		if err != nil {
			return nil, err
		}
		setups = append(setups, t)
		budget := d
		if w.cycle {
			budget = d / cyclePasses
		}
		p, err := measure(s.(*daemon), w, golden, budget)
		if serr := s.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		measured += p.lr.elapsed
	}

	var (
		samples  []sample
		failures []string
		ticks    int64
		hwmKB    int64
		failed   int
	)
	for _, p := range passes {
		samples = append(samples, p.lr.samples...)
		failed += p.lr.failed
		failures = append(failures, gates(w, p.lr, p.before, p.after)...)
		ticks += p.host1.daemon - p.host0.daemon
		hwmKB = max(hwmKB, p.hwmKB)
		reportHost(p.host0, p.host1)
	}
	res := &result{Attempted: len(samples), Failed: failed}
	ok := len(samples) - failed
	lat := summarise(samples, all)
	res.set("throughput_rps", float64(ok)/measured.Seconds(), "1/s")
	res.set("p50_ms", ms(lat.p50), "ms")
	res.set("p99_ms", ms(lat.p99), "ms")
	res.set("success_ratio", float64(ok)/float64(res.Attempted), "ratio")
	res.set("setup_s", median(setups).Seconds(), "s")
	res.set("peak_rss_mb", float64(hwmKB)/1024, "MB")
	res.set("cpu_ms_per_req", float64(ticks)*1000/clockTicks/float64(max(ok, 1)), "ms")

	note("workload=%s passes=%d requests=%d measured=%.3fs p99_samples_beyond=%d setups=%v",
		w.name, len(passes), res.Attempted, measured.Seconds(), lat.beyondP99, setups)
	res.Correct = len(failures) == 0
	for _, f := range failures {
		note("GATE FAILED: %s", f)
	}
	return res, nil
}

// measure runs one measured phase on a daemon and reads its counters,
// CPU time and peak RSS around it.
func measure(dm *daemon, w *workload, golden map[string]uint64, d time.Duration) (pass, error) {
	var p pass
	var err error
	pid := dm.cmd.Process.Pid
	if p.before, err = scrape(dm.url()); err != nil {
		return p, err
	}
	if p.host0, err = readHost(pid); err != nil {
		return p, err
	}
	p.lr = runLoad(dm.url(), w, golden, d, false)
	if p.host1, err = readHost(pid); err != nil {
		return p, err
	}
	if p.after, err = scrape(dm.url()); err != nil {
		return p, err
	}
	_, p.hwmKB, err = procStats(pid)
	return p, err
}

// gates checks a measured phase: every response correct, enough
// requests, and the caching behaviour the workload is built for.
func gates(w *workload, lr *loadResult, before, after map[string]float64) []string {
	fails := append([]string(nil), lr.failures...)
	n := len(lr.samples)
	if n < minRequests {
		fails = append(fails, fmt.Sprintf("%d requests issued, want at least %d", n, minRequests))
	}
	if got, want := runDigests(lr.checkers); got != want {
		fails = append(fails, fmt.Sprintf("run digest %016x, golden %016x", got, want))
	}
	first := 0
	for _, s := range lr.samples {
		if s.first {
			first++
		}
	}
	hits := int(delta(before, after, "loopmapd_encoded_hits_total"))
	plans := int(delta(before, after, "loopmapd_plan_computations_total"))
	shared := int(delta(before, after, "loopmapd_singleflight_shared_total"))
	want := func(what string, got, want int) {
		if got != want {
			fails = append(fails, fmt.Sprintf("%s: %d, want %d", what, got, want))
		}
	}
	want("singleflight_shared", shared, 0)
	switch w.name {
	case "hot":
		want("encoded hits", hits, n)
		want("plan computations", plans, 0)
	case "cold":
		want("encoded hits", hits, 0)
		want("plan computations", plans, n)
	case "durable":
		// Every re-touch is served from a frame in RAM or on disk; only
		// first touches may plan.
		want("encoded hits", hits, n-first)
		if plans > first {
			fails = append(fails, fmt.Sprintf("plan computations: %d, want at most %d first touches", plans, first))
		}
	}
	return fails
}

// median is the upper median, or 0 for no values.
func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// writeGolden computes the digest of every request of the universe on an
// in-process server and writes the table golden.txt is made of.
func writeGolden(path string) error {
	srv := serve.New(serve.Config{})
	h := srv.Handler()
	var reqs []request
	for _, r := range universe() {
		for cube := minCube; cube <= maxCube; cube++ {
			r.Cube = cube
			reqs = append(reqs, r)
		}
	}
	lines := make([]string, len(reqs))
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(reqs); i += clients {
				r := reqs[i]
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(r.body())))
				if rec.Code != http.StatusOK {
					errs[c] = fmt.Errorf("%s: status %d: %s", r.id(), rec.Code, rec.Body)
					return
				}
				d, _, err := digestBody(rec.Body.Bytes())
				if err != nil {
					errs[c] = err
					return
				}
				lines[i] = fmt.Sprintf("%s %016x", r.id(), d)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644)
}
