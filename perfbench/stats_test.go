package main

import (
	"math"
	"testing"
)

func TestPercentileSupportRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want bool
	}{
		{200, 0.95, true},  // exactly 10 beyond
		{199, 0.95, false}, // 9.95 beyond
		{1000, 0.99, true},
		{999, 0.99, false},
		{20, 0.5, true},
		{19, 0.5, false},
	} {
		if got := supported(tc.n, tc.q); got != tc.want {
			t.Errorf("supported(%d, %v) = %v, want %v", tc.n, tc.q, got, tc.want)
		}
	}
}

func TestTailFallsBackToSupportedQuantile(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	v, q := tail(s, 0.99)
	if q != 0.9 || v != 90 {
		t.Fatalf("tail(100 samples, 0.99) = %v at q=%v, want 90 at q=0.9", v, q)
	}
	if v, q = tail(s, 0.5); q != 0.5 || v != 50 {
		t.Fatalf("tail(100 samples, 0.5) = %v at q=%v, want 50 at q=0.5", v, q)
	}
	// Fewer than 20 samples support nothing beyond the median.
	if v, q = tail(s[:8], 0.95); q != 0.5 || v != 4 {
		t.Fatalf("tail(8 samples, 0.95) = %v at q=%v, want the median 4", v, q)
	}
	if v, _ := tail(nil, 0.95); v != 0 {
		t.Fatalf("tail(empty) = %v, want 0", v)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	for q, want := range map[float64]float64{0: 1, 0.25: 1, 0.5: 2, 0.75: 3, 1: 4} {
		if got := quantile(s, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := (sample{3, 1, 2}).median(); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if got := ratio(1, 0); got != 0 || math.IsNaN(got) {
		t.Errorf("ratio(1, 0) = %v, want 0", got)
	}
}

func TestSelfTimeSubtractsMergedChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "pass", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "call", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "call", Start: 30, End: 60},  // overlaps 2
		{ID: 4, Parent: 1, Name: "call", Start: 90, End: 120}, // runs past the parent
	}
	got := map[string]spanStat{}
	for _, st := range selfTimes(spans) {
		got[st.Name] = st
	}
	// Children cover [10,60) and [90,100) of the parent: 60ns.
	if p := got["pass"]; p.Count != 1 || p.SelfMS != 40e-6 || p.TotalMS != 100e-6 {
		t.Fatalf("pass = %+v, want self 40ns of 100ns", p)
	}
	if c := got["call"]; c.Count != 3 || c.SelfMS != c.TotalMS {
		t.Fatalf("call = %+v, want self == total (no children)", c)
	}
}
