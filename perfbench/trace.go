package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/api"
	"repro/internal/core"
	"repro/internal/hyperplane"
	"repro/internal/kernels"
	"repro/internal/mapping"
	"repro/internal/persist"
	"repro/internal/project"
)

// runTraced runs the workload against an in-process server and records
// spans from this file only, around calls into each layer's public
// functions: the HTTP handler, the store's filesystem, and a replay of
// the planner stages.
func runTraced(w *workload, runDir string, d time.Duration, golden map[string]uint64) (*result, error) {
	tfs := &timingFS{FS: persist.OS()}
	spans := &handlerSpans{dur: make(map[int64]time.Duration)}
	g := &rig{w: w, golden: golden, dir: runDir, start: func(dir string, prefill bool) (server, error) {
		return startInProcess(serveConfig(w, dir, prefill, tfs), spans.wrap)
	}}
	if err := g.prefill(); err != nil {
		return nil, err
	}
	s, _, err := g.setUp()
	if err != nil {
		return nil, err
	}
	before, err := scrape(s.url())
	if err != nil {
		_ = s.stop()
		return nil, err
	}
	fs0 := tfs.snapshot()
	host0, err := readHost(0)
	if err != nil {
		_ = s.stop()
		return nil, err
	}
	lr := runLoad(s.url(), w, golden, d, true)
	host1, err := readHost(0)
	if err != nil {
		_ = s.stop()
		return nil, err
	}
	fs1 := tfs.snapshot()
	after, err := scrape(s.url())
	if err != nil {
		_ = s.stop()
		return nil, err
	}
	// The replay set's responses are fetched after the measured phase,
	// so the guard compares the planner with what this server serves.
	replayReqs := replaySet(w)
	served, err := fetch(s.url(), replayReqs, golden)
	if serr := s.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}

	res := &result{Attempted: len(lr.samples), Failed: lr.failed}
	ok := len(lr.samples) - lr.failed
	lat := summarise(lr.samples, all)
	res.set("traced.throughput_rps", float64(ok)/lr.elapsed.Seconds(), "1/s")
	res.set("traced.p50_ms", ms(lat.p50), "ms")
	res.set("traced.p99_ms", ms(lat.p99), "ms")
	note("workload=%s traced requests=%d elapsed=%.3fs p99_samples_beyond=%d",
		w.name, res.Attempted, lr.elapsed.Seconds(), lat.beyondP99)
	reportHost(host0, host1)

	// serve: handler span vs. the client's round trip.
	var inside, outside []time.Duration
	for _, smp := range lr.samples {
		if h, ok := spans.dur[smp.seq]; ok && smp.ok {
			inside = append(inside, h)
			outside = append(outside, smp.lat-h)
		}
	}
	res.set("serve.handler_us", us(median(inside)), "us")
	res.set("serve.outside_us", us(median(outside)), "us")
	res.set("serve.encoded_hit_ratio", delta(before, after, "loopmapd_encoded_hits_total")/float64(max(res.Attempted, 1)), "ratio")
	res.set("serve.plan_computations", delta(before, after, "loopmapd_plan_computations_total"), "count")
	res.set("serve.singleflight_shared", delta(before, after, "loopmapd_singleflight_shared_total"), "count")
	res.set("serve.cache_evictions", delta(before, after, "loopmapd_cache_evictions_total"), "count")
	res.set("serve.gc_runs", delta(before, after, "loopmapd_gc_runs_total"), "count")
	res.set("serve.gc_pause_ms", 1000*delta(before, after, "loopmapd_gc_pause_seconds_total"), "ms")
	writes := summarise(lr.samples, func(s sample) bool { return s.first })
	reads := summarise(lr.samples, func(s sample) bool { return !s.first })
	res.set("serve.write_p50_ms", ms(writes.p50), "ms")
	res.set("serve.write_p99_ms", ms(writes.p99), "ms")
	res.set("serve.read_p50_ms", ms(reads.p50), "ms")
	res.set("serve.read_p99_ms", ms(reads.p99), "ms")

	// tiered / persist: the timing FS and the tier's own counters.
	fsd := fs1.minus(fs0)
	res.set("fs.sync_calls", float64(fsd.syncCalls), "count")
	res.set("fs.sync_ms", ms(time.Duration(fsd.syncNS)), "ms")
	res.set("fs.write_bytes", float64(fsd.writeBytes), "bytes")
	res.set("fs.read_calls", float64(fsd.readCalls), "count")
	res.set("fs.read_ms", ms(time.Duration(fsd.readNS)), "ms")
	res.set("fs.remove_ms", ms(time.Duration(fsd.removeNS)), "ms")
	res.set("tiered.disk_hits", delta(before, after, "loopmapd_tiered_disk_hits_total"), "count")
	res.set("tiered.bloom_negatives", delta(before, after, "loopmapd_tiered_bloom_negatives_total"), "count")
	res.set("tiered.flushes", delta(before, after, "loopmapd_tiered_flushes_total"), "count")
	res.set("tiered.compactions", delta(before, after, "loopmapd_tiered_compactions_total"), "count")
	res.set("tiered.syncs_per_write", ratio(float64(fsd.syncCalls), float64(writes.n)), "ratio")
	res.set("tiered.write_amp", ratio(float64(fsd.writeBytes), float64(writes.totalRespSize)), "ratio")

	failures := gates(w, lr, before, after)

	// planner: replay the replay set stage by stage.
	rp, guard := replay(replayReqs, served)
	failures = append(failures, guard...)
	for i, st := range stages {
		res.set(st.layer+"."+st.name+"_ms", ms(rp.total[i])/float64(max(rp.calls[i], 1)), "ms")
	}
	res.set("loop.points", float64(rp.loopPoints), "count")
	res.set("project.points", float64(rp.projPoints), "count")
	res.set("core.blocks", float64(rp.blocks), "count")
	res.set("core.tig_edges", float64(rp.tigEdges), "count")
	var sum time.Duration
	for _, t := range rp.total {
		sum += t
	}
	res.set("planner.ns_per_point", float64(sum)/float64(max(rp.loopPoints, 1)), "ns")
	note("replayed %d plans, %d mappings", rp.calls[0], rp.calls[len(stages)-1])

	mm, err := matmul128()
	if err != nil {
		return nil, err
	}
	for i, st := range stages {
		res.set("matmul128."+st.name+"_ms", ms(mm[i]), "ms")
	}
	res.set("matmul128.total_ms", ms(mm[len(stages)]), "ms")

	res.Correct = len(failures) == 0
	for _, f := range failures {
		note("GATE FAILED: %s", f)
	}
	return res, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// handlerSpans records the time each traced request spent inside the
// server's handler, keyed by its sequence number.
type handlerSpans struct {
	mu  sync.Mutex
	dur map[int64]time.Duration
}

func (h *handlerSpans) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seq, err := strconv.ParseInt(r.Header.Get(seqHeader), 10, 64)
		t0 := time.Now()
		next.ServeHTTP(w, r)
		d := time.Since(t0)
		if err == nil {
			h.mu.Lock()
			h.dur[seq] = d
			h.mu.Unlock()
		}
	})
}

// --- the timing filesystem ---

type fsCounts struct {
	syncCalls, syncNS, writeBytes, readCalls, readNS, removeNS int64
}

func (a fsCounts) minus(b fsCounts) fsCounts {
	return fsCounts{a.syncCalls - b.syncCalls, a.syncNS - b.syncNS, a.writeBytes - b.writeBytes,
		a.readCalls - b.readCalls, a.readNS - b.readNS, a.removeNS - b.removeNS}
}

// timingFS wraps the store's persist.FS and times syncs (file and
// directory), reads and removes, and counts bytes written.
type timingFS struct {
	persist.FS
	syncCalls, syncNS, writeBytes, readCalls, readNS, removeNS atomic.Int64
}

func (t *timingFS) snapshot() fsCounts {
	return fsCounts{t.syncCalls.Load(), t.syncNS.Load(), t.writeBytes.Load(),
		t.readCalls.Load(), t.readNS.Load(), t.removeNS.Load()}
}

func (t *timingFS) OpenFile(name string, flag int, perm os.FileMode) (persist.File, error) {
	f, err := t.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: f, fs: t}, nil
}

func (t *timingFS) ReadFile(name string) ([]byte, error) {
	t0 := time.Now()
	b, err := t.FS.ReadFile(name)
	t.readCalls.Add(1)
	t.readNS.Add(int64(time.Since(t0)))
	return b, err
}

func (t *timingFS) Remove(name string) error {
	t0 := time.Now()
	err := t.FS.Remove(name)
	t.removeNS.Add(int64(time.Since(t0)))
	return err
}

func (t *timingFS) SyncDir(dir string) error {
	t0 := time.Now()
	err := t.FS.SyncDir(dir)
	t.syncCalls.Add(1)
	t.syncNS.Add(int64(time.Since(t0)))
	return err
}

type timingFile struct {
	persist.File
	fs *timingFS
}

func (f *timingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.writeBytes.Add(int64(n))
	return n, err
}

func (f *timingFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	f.fs.writeBytes.Add(int64(n))
	return n, err
}

func (f *timingFile) ReadAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := f.File.ReadAt(p, off)
	f.fs.readCalls.Add(1)
	f.fs.readNS.Add(int64(time.Since(t0)))
	return n, err
}

func (f *timingFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	f.fs.syncCalls.Add(1)
	f.fs.syncNS.Add(int64(time.Since(t0)))
	return err
}

// --- the planner replay ---

// stages are the planner's steps in NewPlanCtx order; mapping runs once
// per requested cube, the others once per base key.
var stages = []struct{ layer, name string }{
	{"loop", "enumerate"},
	{"hyperplane", "schedule"},
	{"project", "project"},
	{"core", "partition"},
	{"core", "invariants"},
	{"core", "tig"},
	{"mapping", "map"},
}

// replaySet is the distinct requests among the first minRequests of the
// workload's sequence. Every run answers them, so the planner counts
// depend on the seed alone.
func replaySet(w *workload) []request {
	var seq []request
	if w.shared {
		seq = w.lists[0][:min(minRequests, len(w.lists[0]))]
	} else {
		for i := 0; len(seq) < minRequests; i++ {
			for _, l := range w.lists {
				seq = append(seq, l[i%len(l)])
			}
		}
	}
	seen := make(map[string]bool)
	var out []request
	for _, r := range seq {
		if !seen[r.id()] {
			seen[r.id()] = true
			out = append(out, r)
		}
	}
	return out
}

// fetch requests each plan once more and returns the decoded responses.
func fetch(base string, reqs []request, golden map[string]uint64) ([]api.PlanResponse, error) {
	ck := newChecker(golden)
	out := make([]api.PlanResponse, len(reqs))
	for i, r := range prepare(reqs) {
		body, err := postPlan(base, r, ck)
		if err == nil {
			err = json.Unmarshal(body, &out[i])
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

type replayStats struct {
	total                                    [7]time.Duration // per stage
	calls                                    [7]int
	loopPoints, projPoints, blocks, tigEdges int
}

// replay runs each base key through the planner stages once and maps it
// onto every cube the set asks for, timing each stage, and checks the
// results against the served plans (the replay guard).
func replay(reqs []request, served []api.PlanResponse) (replayStats, []string) {
	var rs replayStats
	var fails []string
	byBase := make(map[string][]int)
	var order []string
	for i, r := range reqs {
		if _, ok := byBase[r.base()]; !ok {
			order = append(order, r.base())
		}
		byBase[r.base()] = append(byBase[r.base()], i)
	}
	for _, b := range order {
		idx := byBase[b]
		r := reqs[idx[0]]
		a, err := planStages(r.Kernel, r.Size, core.Options{MergeFactor: r.Merge, NoAux: r.NoAux})
		if err != nil {
			fails = append(fails, fmt.Sprintf("replay %s: %v", b, err))
			continue
		}
		for i := 0; i < 6; i++ {
			rs.total[i] += a.times[i]
			rs.calls[i]++
		}
		rs.loopPoints += a.loopPoints
		rs.projPoints += a.projPoints
		rs.blocks += a.part.NumBlocks()
		rs.tigEdges += len(a.tig.Edges)
		for _, i := range idx {
			t0 := time.Now()
			m, err := mapping.MapPartitioning(a.part, reqs[i].Cube, mapping.Options{})
			rs.total[6] += time.Since(t0)
			rs.calls[6]++
			if err != nil {
				fails = append(fails, fmt.Sprintf("replay %s: %v", reqs[i].id(), err))
				continue
			}
			got := guarded{a.steps, a.part.NumBlocks(), a.part.MaxBlockSize(), len(a.tig.Edges),
				a.tig.TotalTraffic(), a.tig.MaxOutDegree(), mapping.Evaluate(a.tig, m).HopWeight}
			s := served[i]
			want := guarded{s.Steps, s.Blocks, s.MaxBlock, s.TIGEdges, s.TIGTraffic, s.MaxOutDegree, s.HopWeight}
			if got != want {
				fails = append(fails, fmt.Sprintf("replay guard %s: replay %+v, daemon %+v", reqs[i].id(), got, want))
			}
		}
	}
	return rs, fails
}

// guarded is what the replay guard compares with the served plan.
type guarded struct {
	Steps                   int64
	Blocks, MaxBlock, Edges int
	Traffic                 int64
	MaxOutDegree            int
	HopWeight               int64
}

// planned is one base key taken through the stages before mapping.
type planned struct {
	times                  [6]time.Duration
	steps                  int64
	loopPoints, projPoints int
	part                   *core.Partitioning
	tig                    *core.TIG
}

// planStages mirrors NewPlanCtx for a built-in kernel with its own time
// function. CheckInvariants (Lemma 1, Theorem 2) always runs.
func planStages(name string, size int64, opt core.Options) (*planned, error) {
	ctx := context.Background()
	var p planned
	k, err := kernels.Lookup(name, size)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	lap := func(i int) {
		now := time.Now()
		p.times[i] = now.Sub(t)
		t = now
	}
	st, err := k.StructureCtx(ctx)
	if err != nil {
		return nil, err
	}
	lap(0)
	sch, err := hyperplane.NewSchedule(st, k.Pi)
	if err != nil {
		return nil, err
	}
	lap(1)
	ps, err := project.Project(st, sch.Pi)
	if err != nil {
		return nil, err
	}
	lap(2)
	p.part, err = core.PartitionCtx(ctx, ps, opt)
	if err != nil {
		return nil, err
	}
	lap(3)
	if err := core.CheckInvariants(p.part); err != nil {
		return nil, err
	}
	lap(4)
	p.tig = core.BuildTIG(p.part)
	lap(5)
	p.steps = sch.Steps()
	p.loopPoints = len(st.V)
	p.projPoints = len(ps.Points)
	return &p, nil
}

const matmul128Repeats = 3

// matmul128 times the seven stages of one matmul n=128 plan (cube 3),
// matmul128Repeats times, and returns each stage's median and the median
// total.
func matmul128() ([8]time.Duration, error) {
	var runs [8][]time.Duration
	for r := 0; r < matmul128Repeats; r++ {
		a, err := planStages("matmul", 128, core.Options{MergeFactor: 1})
		if err != nil {
			return [8]time.Duration{}, fmt.Errorf("matmul128: %w", err)
		}
		t0 := time.Now()
		if _, err := mapping.MapPartitioning(a.part, 3, mapping.Options{}); err != nil {
			return [8]time.Duration{}, fmt.Errorf("matmul128: %w", err)
		}
		mapT := time.Since(t0)
		total := mapT
		for i, d := range a.times {
			runs[i] = append(runs[i], d)
			total += d
		}
		runs[6] = append(runs[6], mapT)
		runs[7] = append(runs[7], total)
		runtime.GC()
	}
	debug.FreeOSMemory()
	var out [8]time.Duration
	for i := range out {
		out[i] = median(runs[i])
	}
	return out, nil
}
