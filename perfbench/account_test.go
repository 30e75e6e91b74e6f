package main

import (
	"reflect"
	"testing"
	"time"

	"mobicache/internal/catalog"
	"mobicache/internal/client"
)

func TestAccountFreshAndUnits(t *testing.T) {
	var a account
	for _, x := range []answer{
		// Two requests served by one download of object 3 in window 7:
		// billed once.
		{Station: 0, Window: 7, Object: 3, Size: 4, Target: 0.9, Source: "download", Score: 1, Recency: 1},
		{Station: 0, Window: 7, Object: 3, Size: 4, Target: 0.5, Source: "download", Score: 1, Recency: 1},
		// The same object downloaded by the other station: billed again.
		{Station: 1, Window: 7, Object: 3, Size: 4, Target: 0.5, Source: "download", Score: 1, Recency: 1},
		// A cache hit at its target is fresh.
		{Station: 0, Window: 8, Object: 1, Size: 2, Target: 0.5, Source: "cache", Score: 1, Recency: 0.5},
		// A cache hit below its target is not fresh, though not stale:
		// loadgen.Collector would count it fresh.
		{Station: 0, Window: 8, Object: 2, Size: 3, Target: 0.9, Source: "cache", Score: 0.6, Recency: 0.5},
		// A stale fallback below its target is not fresh.
		{Station: 1, Window: 9, Object: 5, Size: 2, Target: 0.8, Source: "cache", Score: 0.7, Recency: 0.25, Stale: true},
	} {
		a.add(x)
	}
	if a.Answers != 6 || a.Downloads != 3 || a.Cache != 3 {
		t.Fatalf("answers/downloads/cache = %d/%d/%d, want 6/3/3", a.Answers, a.Downloads, a.Cache)
	}
	if a.Units != 8 {
		t.Fatalf("units = %d, want 8 (object 3 once per station)", a.Units)
	}
	if a.Fresh != 4 {
		t.Fatalf("fresh = %d, want 4 (three downloads and one on-target hit)", a.Fresh)
	}
	if got, want := a.meanScore(), (1+1+1+1+0.6+0.7)/6; got != want {
		t.Fatalf("mean score = %v, want %v", got, want)
	}
	if got := a.unitsPerReq(); got != 8.0/6 {
		t.Fatalf("units per request = %v, want 8/6", got)
	}
}

func TestAccountRejectsMalformedAnswers(t *testing.T) {
	var a account
	a.add(answer{Source: "miss", Score: 0})
	a.add(answer{Source: "shed"})
	a.add(answer{Source: "cache", Score: 1.5, Recency: 1})
	a.add(answer{Source: "cache", Score: 0.5, Recency: -0.1})
	if a.Failed != 4 || a.Answers != 0 || len(a.Problems) != 4 {
		t.Fatalf("failed %d answers %d problems %d, want 4/0/4", a.Failed, a.Answers, len(a.Problems))
	}
}

func req(obj int) client.Request { return client.Request{Object: catalog.ID(obj)} }

func TestRegroupRebuildsWindows(t *testing.T) {
	ms := time.Millisecond
	recs := []windowed{
		// Station 0, window 4: submitted as 2 then 0; returns observed
		// out of order.
		{Station: 0, Window: 4, Index: 2, Req: req(12), Done: 9 * ms},
		{Station: 0, Window: 4, Index: 0, Req: req(10), Done: 8 * ms},
		// Station 0, window 5 was observed returning before window 4 by
		// a slow worker; it must still replay after window 4.
		{Station: 0, Window: 5, Index: 4, Req: req(14), Done: 7 * ms},
		// Station 1's windows interleave by return time.
		{Station: 1, Window: 0, Index: 1, Req: req(11), Done: 3 * ms},
		{Station: 1, Window: 1, Index: 3, Req: req(13), Done: 10 * ms},
	}
	got := regroup(recs)
	want := []window{
		{Station: 1, Window: 0, Done: 3 * ms, Reqs: []client.Request{req(11)}},
		{Station: 0, Window: 4, Done: 8 * ms, Reqs: []client.Request{req(10), req(12)}},
		{Station: 0, Window: 5, Done: 7 * ms, Reqs: []client.Request{req(14)}},
		{Station: 1, Window: 1, Done: 10 * ms, Reqs: []client.Request{req(13)}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("regroup =\n%+v\nwant\n%+v", got, want)
	}
	if regroup(nil) == nil || len(regroup(nil)) != 0 {
		t.Fatal("regroup(nil) should be an empty window list")
	}
}

func TestWarmWindowsCoverEveryRequestInFullWindows(t *testing.T) {
	owner := func(id int) int { return id % 2 }
	warm := warmRequests(9, 100, owner)
	ws := warmWindows(warm)
	seen := map[int]bool{}
	for _, w := range ws {
		if len(w.Reqs) > winMaxBatch {
			t.Fatalf("window of %d requests exceeds the batch bound", len(w.Reqs))
		}
		for _, r := range w.Reqs {
			if owner(int(r.Object)) != w.Station || seen[int(r.Object)] {
				t.Fatalf("object %d on station %d (owner %d, repeat %v)", r.Object, w.Station, owner(int(r.Object)), seen[int(r.Object)])
			}
			seen[int(r.Object)] = true
		}
	}
	if len(seen) != 100 {
		t.Fatalf("warm-up covered %d objects, want 100", len(seen))
	}
}

func TestStreamsAreDeterministicBySeed(t *testing.T) {
	a, err := drawRequests(deriveSeed(7, 1), 1000, 500, 1.1, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := drawRequests(deriveSeed(7, 1), 1000, 500, 1.1, 0.5, 1)
	c, _ := drawRequests(deriveSeed(8, 1), 1000, 500, 1.1, 0.5, 1)
	d, _ := drawRequests(deriveSeed(7, 2), 1000, 500, 1.1, 0.5, 1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed drew different requests")
	}
	if reflect.DeepEqual(a, c) || reflect.DeepEqual(a, d) {
		t.Fatal("different seeds or stream tags drew identical requests")
	}
	for _, r := range a {
		if r.Target < 0.5 || r.Target > 1 || r.Object < 0 || r.Object >= 1000 {
			t.Fatalf("request %+v outside the configured ranges", r)
		}
	}
	u1, _ := drawUpdates(deriveSeed(7, 3), 1000, 10, 20, 1.1)
	u2, _ := drawUpdates(deriveSeed(7, 3), 1000, 10, 20, 1.1)
	if !reflect.DeepEqual(u1, u2) {
		t.Fatal("same seed drew different update batches")
	}
	w1 := warmRequests(3, 50, func(int) int { return 0 })
	w2 := warmRequests(3, 50, func(int) int { return 0 })
	if !reflect.DeepEqual(w1, w2) {
		t.Fatal("same seed drew different warm-up orders")
	}
}
