package loop

import (
	"errors"
	"math"
	"testing"

	"repro/internal/vec"
)

// TestRectIndexOverflowGuard: adversarial constant bounds whose extent
// product overflows int64 must fail with ErrTooLarge at construction, not
// wrap into bogus strides.
func TestRectIndexOverflowGuard(t *testing.T) {
	cases := []struct {
		name   string
		lo, hi []int64
	}{
		{"two huge dims", []int64{0, 0}, []int64{1 << 32, 1 << 32}},
		{"four medium dims", []int64{0, 0, 0, 0}, []int64{1 << 20, 1 << 20, 1 << 20, 1 << 20}},
		{"span overflow", []int64{math.MinInt64 + 1, 0}, []int64{math.MaxInt64 - 1, 1}},
		{"single max span", []int64{math.MinInt64}, []int64{math.MaxInt64}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := NewRect(tc.name, tc.lo, tc.hi)
			deps := make([]int64, len(tc.lo))
			deps[len(deps)-1] = 1
			_, err := NewStructure(n, vec.NewInt(deps...))
			if err == nil {
				t.Fatal("NewStructure accepted an overflowing index space")
			}
			if !errors.Is(err, ErrTooLarge) {
				t.Fatalf("error %v does not wrap ErrTooLarge", err)
			}
		})
	}
}

// TestRectIndexLargeButRepresentable: a space that is huge but fits int64
// must still pass sizing (enumeration is separately deadline-bounded).
func TestRectIndexSizingBoundary(t *testing.T) {
	n := NewRect("fits", []int64{0, 0}, []int64{1 << 30, 1 << 30})
	r, err := newRectIndex(n)
	if err != nil || r == nil {
		t.Fatalf("representable space rejected: %v", err)
	}
	if r.strides[0] != (1<<30)+1 {
		t.Fatalf("stride[0] = %d, want %d", r.strides[0], (1<<30)+1)
	}
}

// TestEnumerationBufferSizingOverflow: the point count fits int64 (2^62)
// but the coordinate buffer, points × Dims, does not; sizing must fail
// with ErrTooLarge rather than wrap.
func TestEnumerationBufferSizingOverflow(t *testing.T) {
	n := NewRect("wide", []int64{0, 0, 0}, []int64{1<<20 - 1, 1<<20 - 1, 1<<22 - 1})
	if r, err := newRectIndex(n); err != nil || r.size != 1<<62 {
		t.Fatalf("point count should fit: size %v, err %v", r, err)
	}
	_, err := NewStructure(n, vec.NewInt(0, 0, 1))
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}
