package project

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/kernels"
	"repro/internal/loop"
	"repro/internal/vec"
)

// refProject is the sort-based projection Project replaced: every vertex
// id sorted by (scaled projection, execution time), runs of equal
// projections cut into fibers, and a string-keyed map as the point index.
func refProject(st *loop.Structure, pi vec.Int) (points []vec.Int, fibers [][]int, index map[string]int) {
	s := pi.Dot(pi)
	order := make([]int, len(st.V))
	scaled := make([]vec.Int, len(st.V))
	times := make([]int64, len(st.V))
	for vi, x := range st.V {
		order[vi] = vi
		scaled[vi] = ScalePoint(x, pi, s)
		times[vi] = x.Dot(pi)
	}
	sort.Slice(order, func(a, b int) bool {
		if c := scaled[order[a]].Cmp(scaled[order[b]]); c != 0 {
			return c < 0
		}
		return times[order[a]] < times[order[b]]
	})
	index = map[string]int{}
	for i := 0; i < len(order); {
		j := i
		for j < len(order) && scaled[order[j]].Equal(scaled[order[i]]) {
			j++
		}
		index[scaled[order[i]].Key()] = len(points)
		points = append(points, scaled[order[i]])
		fibers = append(fibers, append([]int{}, order[i:j]...))
		i = j
	}
	return points, fibers, index
}

// assertMatchesRef checks Points, Fibers and IndexOf — for every point and
// for probes on and off the hyperplane lattice — against refProject.
func assertMatchesRef(t *testing.T, name string, st *loop.Structure, pi vec.Int, rng *rand.Rand) *Structure {
	t.Helper()
	ps, err := Project(st, pi)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	points, fibers, index := refProject(st, pi)
	if !reflect.DeepEqual(ps.Points, points) {
		t.Fatalf("%s: Points differ from the sort-based reference", name)
	}
	if !reflect.DeepEqual(ps.Fibers, fibers) {
		t.Fatalf("%s: Fibers differ from the sort-based reference", name)
	}
	for i, p := range points {
		if got := ps.IndexOf(p); got != i {
			t.Fatalf("%s: IndexOf(%v) = %d, want %d", name, p, got, i)
		}
	}
	n := len(pi)
	for probe := 0; probe < 200; probe++ {
		q := points[rng.Intn(len(points))].Clone()
		if probe%2 == 0 {
			for _, d := range ps.Deps {
				q = q.AddScaled(int64(rng.Intn(7))-3, d.Scaled)
			}
		} else {
			q[rng.Intn(n)] += int64(rng.Intn(5)) - 2 // usually off the hyperplane
		}
		want, ok := index[q.Key()]
		if !ok {
			want = -1
		}
		if got := ps.IndexOf(q); got != want {
			t.Fatalf("%s: IndexOf(%v) = %d, want %d", name, q, got, want)
		}
	}
	return ps
}

// TestProjectMatchesSortReference: the bucketed projection reproduces the
// sort-based one exactly on every built-in kernel (including the
// non-rectangular triangular nest), on a lexicographically negative Π, and
// with latticeDenseCap = 0, which forces the sort-and-map fallback.
func TestProjectMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	defer func(old int64) { latticeDenseCap = old }(latticeDenseCap)
	for _, limit := range []int64{latticeDenseCap, 0} {
		latticeDenseCap = limit
		dense := limit > 0
		for _, name := range kernels.Names() {
			for _, size := range []int64{1, 2, 3, 5, 8, 13, 24} {
				k, err := kernels.Lookup(name, size)
				if err != nil {
					t.Fatal(err)
				}
				st, err := k.Structure()
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s/%d/dense=%v", name, size, dense)
				if ps := assertMatchesRef(t, label, st, k.Pi, rng); ps.Dense() != dense {
					t.Fatalf("%s: Dense() = %v", label, ps.Dense())
				}
			}
		}

		// Π = (−1, 2) is valid for D = {(0,1), (1,1)} but lexicographically
		// negative: V's order runs against time along every fiber.
		for _, size := range []int64{1, 4, 9} {
			st, err := loop.NewStructure(loop.NewRect("neg", []int64{0, 0}, []int64{size, size + 2}),
				vec.NewInt(0, 1), vec.NewInt(1, 1))
			if err != nil {
				t.Fatal(err)
			}
			pi := vec.NewInt(-1, 2)
			if pi.LexPositive() {
				t.Fatal("Π should be lexicographically negative")
			}
			label := fmt.Sprintf("neg/%d/dense=%v", size, dense)
			ps := assertMatchesRef(t, label, st, pi, rng)
			if ps.Dense() != dense {
				t.Fatalf("%s: Dense() = %v", label, ps.Dense())
			}
			reversed := false
			for _, f := range ps.Fibers {
				reversed = reversed || (len(f) > 1 && f[0] > f[1])
			}
			if size > 1 && !reversed {
				t.Fatalf("%s: no fiber runs against V's order", label)
			}
		}
	}
}
