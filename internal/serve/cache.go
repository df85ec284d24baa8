package serve

import (
	"container/list"
	"sync"
	"unsafe"

	loopmap "repro"
	"repro/internal/core"
	"repro/internal/persist"
)

// planCache is a content-addressed LRU over *base* plans (planned with
// CubeDim = -1, the expensive enumerate→schedule→partition→TIG artifact).
// One cached partitioning serves every cube dimension through Plan.Remap,
// so the mapping phase is never a cache dimension. Capacity is accounted
// in estimated bytes (see planBytes), not entry counts, because plan size
// varies by orders of magnitude across kernels and sizes.
type planCache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
}

type cacheEntry struct {
	key   string
	plan  *loopmap.Plan
	bytes int64
	// payload is the canonical request the plan was computed from — the
	// compact durable encoding the persist WAL stores (the plan itself is
	// a pure function of it, so recovery recomputes instead of
	// deserializing megabytes). Nil when persistence is disabled.
	payload []byte
}

func newPlanCache(maxBytes int64) *planCache {
	return &planCache{maxBytes: maxBytes, ll: list.New(), items: map[string]*list.Element{}}
}

// get returns the cached base plan for key, promoting it to most recent.
func (c *planCache) get(key string) (*loopmap.Plan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).plan, true
}

// put inserts a base plan and evicts least-recently-used entries until the
// byte budget holds again; the newest entry itself is never evicted, so a
// single oversized plan still caches (and evicts everything else). It
// returns the number of evictions.
func (c *planCache) put(key string, p *loopmap.Plan, payload []byte) int {
	b := planBytes(p)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return 0
	}
	el := c.ll.PushFront(&cacheEntry{key: key, plan: p, bytes: b, payload: payload})
	c.items[key] = el
	c.bytes += b
	evicted := 0
	for c.bytes > c.maxBytes && c.ll.Len() > 1 {
		oldest := c.ll.Back()
		e := oldest.Value.(*cacheEntry)
		c.ll.Remove(oldest)
		delete(c.items, e.key)
		c.bytes -= e.bytes
		evicted++
	}
	return evicted
}

// records dumps the live entries as durable records, least-recently-used
// first, so a replay re-inserts them in recency order and the warmest
// entries survive any budget eviction during recovery. Entries without a
// payload (cached before persistence was enabled) are skipped.
func (c *planCache) records() []persist.Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]persist.Record, 0, c.ll.Len())
	for el := c.ll.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*cacheEntry)
		if e.payload != nil {
			out = append(out, persist.Record{Key: e.key, Value: e.payload})
		}
	}
	return out
}

// stats returns the current byte and entry footprint.
func (c *planCache) stats() (bytes int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes, c.ll.Len()
}

// planBytes estimates the resident size of a base plan: the vertex set and
// its projection dominate, with the partitioning's per-point tables and the
// TIG behind them. The estimate only needs to be proportional — the cache
// budget is a sizing knob, not an allocator — but it must not undercount
// the slices a plan owns (TestPlanBytesCoversOwnedSlices).
func planBytes(p *loopmap.Plan) int64 {
	const word, header = 8, 24 // int64/int and slice header sizes
	dims := int64(p.Structure.Nest.Dims)
	perVec := dims*word + header
	nV := int64(len(p.Structure.V))
	nP := int64(len(p.Projected.Points))

	// Vertices: one shared coordinate buffer plus a header per vertex.
	b := nV * perVec
	// Projected points likewise; fibers are one header per point over one
	// shared backing array of vertex ids; then the point index.
	b += nP*(perVec+header) + nV*word + p.Projected.IndexBytes()
	b += int64(len(p.Projected.Deps)) * (2*perVec + 2*word)
	part := p.Partitioning
	b += int64(cap(part.BlockOf)+cap(part.GroupOf)) * word
	b += int64(cap(part.Groups)) * int64(unsafe.Sizeof(core.Group{}))
	for _, g := range part.Groups {
		b += int64(cap(g.Base)+cap(g.Members)+cap(g.Slot)+cap(g.Coords)) * word
	}
	// The TIG: loads, edges, CSR row offsets and per-edge dependence
	// weights.
	b += p.TIG.Bytes()
	return b + 2048 // the kernel, schedule and fixed struct overhead
}
