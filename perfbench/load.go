package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// minRequests keeps p99 resting on at least ten samples beyond it: a run
// goes on past --seconds until this many requests are done (or its lists
// end).
const minRequests = 1000

// seqHeader carries a request's sequence number in the traced run, so
// the handler span can be matched to the client's round trip.
const seqHeader = "X-Bench-Seq"

type sample struct {
	lat   time.Duration
	seq   int64
	size  int // response body bytes
	first bool
	ok    bool
}

type loadResult struct {
	samples  []sample
	elapsed  time.Duration
	failures []string // the first few gate failures
	failed   int
	checkers []*checker
}

// runLoad drives the workload's lists from two closed-loop clients, one
// connection each, for d (and at least minRequests), and checks every
// response against the golden table.
func runLoad(base string, w *workload, golden map[string]uint64, d time.Duration, traced bool) *loadResult {
	lists := make([][]prepared, len(w.lists))
	for i, l := range w.lists {
		lists[i] = prepare(l)
	}
	var (
		cursor, issued atomic.Int64
		mu             sync.Mutex
		wg             sync.WaitGroup
		res            = &loadResult{}
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
			defer tr.CloseIdleConnections()
			hc := &http.Client{Transport: tr}
			ck := newChecker(golden)
			var (
				samples  []sample
				failures []string
				buf      bytes.Buffer
			)
			li := c
			if w.shared {
				li = 0
			}
			list := lists[li]
			for i := 0; ; i++ {
				if time.Since(start) >= d && issued.Load() >= minRequests {
					break
				}
				j := i
				if w.shared {
					j = int(cursor.Add(1) - 1)
				}
				if j >= len(list) {
					if !w.cycle {
						break
					}
					j %= len(list)
				}
				r := list[j]
				seq := issued.Add(1)
				req, err := http.NewRequest(http.MethodPost, base+"/v1/plan", bytes.NewReader(r.body))
				if err != nil {
					panic(err) // the URL and body are built by this program
				}
				req.Header.Set("Content-Type", "application/json")
				if traced {
					req.Header.Set(seqHeader, strconv.FormatInt(seq, 10))
				}
				t0 := time.Now()
				status, err := post(hc, req, &buf)
				s := sample{lat: time.Since(t0), seq: seq, size: buf.Len(), first: r.First}
				if err == nil {
					err = ck.check(r, status, buf.Bytes())
				}
				s.ok = err == nil
				if err != nil && len(failures) < 5 {
					failures = append(failures, err.Error())
				}
				samples = append(samples, s)
			}
			mu.Lock()
			defer mu.Unlock()
			res.samples = append(res.samples, samples...)
			res.failures = append(res.failures, failures...)
			res.checkers = append(res.checkers, ck)
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	for _, s := range res.samples {
		if !s.ok {
			res.failed++
		}
	}
	return res
}

func post(hc *http.Client, req *http.Request, buf *bytes.Buffer) (int, error) {
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, fmt.Errorf("reading response: %w", err)
	}
	return resp.StatusCode, nil
}

// latencies summarises the successful samples accepted by keep.
type latencies struct {
	n             int
	p50, p99      time.Duration
	beyondP99     int // samples above the p99 rank
	totalRespSize int64
}

func summarise(samples []sample, keep func(sample) bool) latencies {
	var lat []time.Duration
	var out latencies
	for _, s := range samples {
		if s.ok && keep(s) {
			lat = append(lat, s.lat)
			out.totalRespSize += int64(s.size)
		}
	}
	out.n = len(lat)
	if out.n == 0 {
		return out
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	out.p50 = lat[rank(0.50, out.n)]
	r99 := rank(0.99, out.n)
	out.p99 = lat[r99]
	out.beyondP99 = out.n - 1 - r99
	return out
}

// rank is the nearest-rank index of quantile q among n sorted values.
func rank(q float64, n int) int {
	return int(math.Ceil(q*float64(n))) - 1
}

func all(sample) bool { return true }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
