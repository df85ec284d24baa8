package main

import (
	"fmt"
	"math/rand"
)

// The request universe. Every workload draws its keys from it, and the
// golden table holds one digest for each of its requests, so any seed
// can be checked against it.
const (
	max3D = 40  // largest size of a 3-D kernel
	max2D = 128 // largest size of a 2-D kernel
	// A matmul plan of size 128 takes seconds and most of a gigabyte, so
	// the largest 3-D plans are left to the traced run's matmul128 split.
	minCube, maxCube = 2, 4

	hotKeys      = 48
	hotMaxPoints = 4096 // hot keys are cheap, so the warm pass is short

	durableMax2D      = 80  // durable plans are small 2-D plans
	durablePrefill    = 500 // encoded keys per client written before set-up
	durableListLen    = 18000
	durableFirstShare = 0.2
	durableZipfS      = 1.1
)

var (
	kernels3D = []string{"closure", "matmul", "sor2d"}
	kernels2D = []string{"convolution", "dct", "l1", "matvec", "stencil", "triangular"}
)

// request is one /v1/plan call. First marks a request that computes: a
// plan-cache miss in cold, the first touch of an encoded key in durable.
type request struct {
	Kernel string
	Size   int64
	Merge  int64
	NoAux  bool
	Cube   int
	First  bool
}

// prepared is a request with its body and id rendered once, off the
// measured path.
type prepared struct {
	request
	id   string
	body []byte
}

func prepare(l []request) []prepared {
	out := make([]prepared, len(l))
	for i, r := range l {
		out[i] = prepared{r, r.id(), r.body()}
	}
	return out
}

// base names the planning inputs: every cube dimension of one base key
// is served by a single cached partitioning.
func (r request) base() string {
	return fmt.Sprintf("%s %d %d %t", r.Kernel, r.Size, r.Merge, r.NoAux)
}

// id names the encoded response: the golden table's key.
func (r request) id() string { return fmt.Sprintf("%s %d", r.base(), r.Cube) }

func (r request) body() []byte {
	return []byte(fmt.Sprintf(`{"kernel":%q,"size":%d,"cube_dim":%d,"merge_factor":%d,"no_aux":%t}`,
		r.Kernel, r.Size, r.Cube, r.Merge, r.NoAux))
}

// points approximates the iteration count, used only to pick cheap keys.
func (r request) points() int64 {
	for _, k := range kernels3D {
		if k == r.Kernel {
			return r.Size * r.Size * r.Size
		}
	}
	return r.Size * r.Size
}

// baseKeys lists the base keys of the named kernels up to maxSize, in a
// fixed order, with the cube dimension unset.
func baseKeys(names []string, maxSize int64) []request {
	var out []request
	for _, k := range names {
		for size := int64(2); size <= maxSize; size++ {
			for merge := int64(1); merge <= 3; merge++ {
				for _, noAux := range []bool{false, true} {
					out = append(out, request{Kernel: k, Size: size, Merge: merge, NoAux: noAux})
				}
			}
		}
	}
	return out
}

// universe lists every base key the benchmark may request.
func universe() []request {
	return append(baseKeys(kernels3D, max3D), baseKeys(kernels2D, max2D)...)
}

// workload is one seeded traffic mix. The lists are fixed by the seed;
// how far a run gets through them depends only on --seconds.
type workload struct {
	name string
	// lists holds one request list per client. With shared set, both
	// clients take the next request of lists[0] instead.
	lists  [][]request
	shared bool
	cycle  bool // start a list over when it ends (hot)
	// warm is issued during set-up (hot); prefill is issued before
	// set-up, untimed, to fill the store a warm restart reads (durable).
	warm    []request
	prefill [][]request
	// durable runs on the tiered store instead of the in-memory daemon.
	durable bool
}

const clients = 2 // one closed-loop client per CPU of the reference machine

func makeWorkload(name string, seed int64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "hot":
		return makeHot(rng), nil
	case "cold":
		return makeCold(rng), nil
	case "durable":
		return makeDurable(rng), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want hot, cold or durable)", name)
}

func withCube(rng *rand.Rand, r request) request {
	r.Cube = minCube + rng.Intn(maxCube-minCube+1)
	return r
}

// makeHot warms 48 cheap keys; every measured request is an
// encoded-cache hit.
func makeHot(rng *rand.Rand) *workload {
	var cands []request
	for _, r := range universe() {
		if r.points() <= hotMaxPoints {
			cands = append(cands, r)
		}
	}
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	warm := make([]request, hotKeys)
	for i := range warm {
		warm[i] = withCube(rng, cands[i])
	}
	w := &workload{name: "hot", warm: warm, cycle: true}
	for c := 0; c < clients; c++ {
		l := append([]request(nil), warm...)
		rng.Shuffle(len(l), func(i, j int) { l[i], l[j] = l[j], l[i] })
		w.lists = append(w.lists, l)
	}
	return w
}

// makeCold issues every base key of the universe at most once, in a
// seeded order: every request is a plan-cache miss.
func makeCold(rng *rand.Rand) *workload {
	keys := universe()
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for i := range keys {
		keys[i] = withCube(rng, keys[i])
		keys[i].First = true
	}
	return &workload{name: "cold", lists: [][]request{keys}, shared: true}
}

// makeDurable gives each client its own base keys, so a re-touch always
// follows its first touch on the same connection and no two clients
// compute one base plan. Each list mixes first touches of fresh encoded
// keys with Zipf re-touches of the keys its client has touched before.
func makeDurable(rng *rand.Rand) *workload {
	bases := baseKeys(kernels2D, durableMax2D)
	rng.Shuffle(len(bases), func(i, j int) { bases[i], bases[j] = bases[j], bases[i] })
	w := &workload{name: "durable", durable: true}
	for c := 0; c < clients; c++ {
		var enc []request
		for i := c; i < len(bases); i += clients {
			for cube := minCube; cube <= maxCube; cube++ {
				r := bases[i]
				r.Cube = cube
				enc = append(enc, r)
			}
		}
		rng.Shuffle(len(enc), func(i, j int) { enc[i], enc[j] = enc[j], enc[i] })
		touched := append([]request(nil), enc[:durablePrefill]...)
		fresh := enc[durablePrefill:]
		list := make([]request, 0, durableListLen)
		for len(list) < durableListLen {
			if len(fresh) > 0 && rng.Float64() < durableFirstShare {
				r := fresh[0]
				fresh = fresh[1:]
				touched = append(touched, r)
				r.First = true
				list = append(list, r)
				continue
			}
			z := rand.NewZipf(rng, durableZipfS, 1, uint64(len(touched)-1))
			list = append(list, touched[z.Uint64()])
		}
		w.prefill = append(w.prefill, enc[:durablePrefill])
		w.lists = append(w.lists, list)
	}
	return w
}
