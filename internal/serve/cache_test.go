package serve

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	loopmap "repro"
)

func testPlan(t *testing.T, size int64) *loopmap.Plan {
	t.Helper()
	k, err := loopmap.LookupKernel("l1", size)
	if err != nil {
		t.Fatal(err)
	}
	p, err := loopmap.NewPlan(k, loopmap.PlanOptions{CubeDim: -1})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPlanCacheLRUOrder(t *testing.T) {
	pa, pb, pc := testPlan(t, 4), testPlan(t, 5), testPlan(t, 6)
	// Budget for exactly two of these plans.
	budget := planBytes(pa) + planBytes(pb) + planBytes(pc)/2
	c := newPlanCache(budget)

	c.put("a", pa, nil)
	c.put("b", pb, nil)
	// Touch a so b becomes the eviction candidate.
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing before eviction")
	}
	if ev := c.put("c", pc, nil); ev == 0 {
		t.Fatal("inserting c should evict")
	}
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted (least recently used)")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a should have survived (recently used)")
	}
	if _, ok := c.get("c"); !ok {
		t.Fatal("c should be cached (newest)")
	}
}

func TestPlanCacheNewestNeverEvicted(t *testing.T) {
	p := testPlan(t, 6)
	c := newPlanCache(1) // smaller than any plan
	c.put("big", p, nil)
	if _, ok := c.get("big"); !ok {
		t.Fatal("an oversized newest entry must still cache")
	}
	if _, n := c.stats(); n != 1 {
		t.Fatalf("entries = %d, want 1", n)
	}
}

func TestPlanCacheDuplicatePut(t *testing.T) {
	p := testPlan(t, 4)
	c := newPlanCache(1 << 20)
	c.put("k", p, nil)
	c.put("k", p, nil)
	b1, n := c.stats()
	if n != 1 {
		t.Fatalf("entries = %d, want 1 after duplicate put", n)
	}
	if b1 != planBytes(p) {
		t.Fatalf("bytes = %d, want %d (no double counting)", b1, planBytes(p))
	}
}

func TestFlightGroupDeduplicates(t *testing.T) {
	var g flightGroup
	var calls atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})

	const n = 16
	var wg sync.WaitGroup
	sharedCount := atomic.Int64{}
	var once sync.Once
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err, shared := g.do(context.Background(), "k", func() (any, error) {
				calls.Add(1)
				once.Do(func() { close(started) })
				<-release
				return 42, nil
			})
			if err != nil || v.(int) != 42 {
				t.Errorf("v=%v err=%v", v, err)
			}
			if shared {
				sharedCount.Add(1)
			}
		}()
	}
	<-started
	// Give every follower time to reach do() and block on the leader's
	// completion before releasing it (same approach as x/sync's tests).
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("fn ran %d times, want 1", calls.Load())
	}
	if sharedCount.Load() != n-1 {
		t.Fatalf("shared = %d, want %d", sharedCount.Load(), n-1)
	}
}

func TestFlightGroupPropagatesError(t *testing.T) {
	var g flightGroup
	boom := errors.New("boom")
	_, err, _ := g.do(context.Background(), "k", func() (any, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// A failed flight is not cached: the next call runs again.
	v, err, _ := g.do(context.Background(), "k", func() (any, error) { return 1, nil })
	if err != nil || v.(int) != 1 {
		t.Fatalf("retry after failure: v=%v err=%v", v, err)
	}
}

// ownedSliceBytes sums cap × element size over every slice reachable from
// v through pointers, structs, arrays and slices, counting each pointer
// target and each slice backing array once. Maps, functions, interfaces
// and channels are not followed.
func ownedSliceBytes(v reflect.Value, seen map[uintptr]bool) int64 {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || seen[v.Pointer()] {
			return 0
		}
		seen[v.Pointer()] = true
		return ownedSliceBytes(v.Elem(), seen)
	case reflect.Struct:
		var b int64
		for i := 0; i < v.NumField(); i++ {
			b += ownedSliceBytes(v.Field(i), seen)
		}
		return b
	case reflect.Array:
		var b int64
		for i := 0; i < v.Len(); i++ {
			b += ownedSliceBytes(v.Index(i), seen)
		}
		return b
	case reflect.Slice:
		if v.IsNil() || v.Cap() == 0 || seen[v.Pointer()] {
			return 0
		}
		seen[v.Pointer()] = true
		b := int64(v.Cap()) * int64(v.Type().Elem().Size())
		switch v.Type().Elem().Kind() {
		case reflect.Pointer, reflect.Struct, reflect.Array, reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				b += ownedSliceBytes(v.Index(i), seen)
			}
		}
		return b
	}
	return 0
}

// TestPlanBytesCoversOwnedSlices: the cache budget counts a plan by
// planBytes, so the estimate must be at least the bytes of every slice
// the plan owns — the vertex buffer, projected points, the shared fibers
// backing, the lattice table, the partitioning's tables and the TIG's CSR
// arrays — or the budget silently grows.
func TestPlanBytesCoversOwnedSlices(t *testing.T) {
	cases := []struct {
		kernel string
		size   int64
		opt    loopmap.PartitionOptions
	}{
		{"l1", 8, loopmap.PartitionOptions{}},
		{"matmul", 12, loopmap.PartitionOptions{}},
		{"matmul", 10, loopmap.PartitionOptions{MergeFactor: 3, NoAux: true}},
		{"stencil", 24, loopmap.PartitionOptions{MergeFactor: 2}},
		{"triangular", 16, loopmap.PartitionOptions{}},
		{"closure", 6, loopmap.PartitionOptions{}},
		{"dct", 8, loopmap.PartitionOptions{}},
	}
	for _, tc := range cases {
		k, err := loopmap.LookupKernel(tc.kernel, tc.size)
		if err != nil {
			t.Fatal(err)
		}
		p, err := loopmap.NewPlan(k, loopmap.PlanOptions{CubeDim: -1, Partition: tc.opt})
		if err != nil {
			t.Fatalf("%s %d: %v", tc.kernel, tc.size, err)
		}
		owned := ownedSliceBytes(reflect.ValueOf(p), map[uintptr]bool{})
		if est := planBytes(p); est < owned {
			t.Errorf("%s %d %+v: planBytes = %d, below the %d bytes of slices the plan owns",
				tc.kernel, tc.size, tc.opt, est, owned)
		}
	}
}
