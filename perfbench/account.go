package main

import (
	"fmt"
	"sort"
	"time"

	"mobicache/internal/client"
)

// answer is one served read request as the benchmark accounts it: which
// station and window served it, what was asked, and what came back.
type answer struct {
	Station int
	Window  int
	Object  int
	Size    int64 // catalog size of Object, in data units
	Target  float64
	Source  string // "cache" or "download" on a correct answer
	Score   float64
	Recency float64
	Stale   bool
}

// fresh reports whether the answer met its target recency: a download is
// fresh by definition, any other answer only when the recency it
// delivered reaches the request's target. A stale fallback therefore
// counts as fresh only if its copy still met the target.
func (a answer) fresh() bool {
	return a.Source == "download" || a.Recency >= a.Target
}

// check returns why an answer is wrong, or "" when it is well formed.
func (a answer) check() string {
	switch {
	case a.Source != "cache" && a.Source != "download":
		return fmt.Sprintf("object %d: source %q, want cache or download", a.Object, a.Source)
	case !(a.Score >= 0 && a.Score <= 1):
		return fmt.Sprintf("object %d: score %v outside [0, 1]", a.Object, a.Score)
	case !(a.Recency >= 0 && a.Recency <= 1):
		return fmt.Sprintf("object %d: recency %v outside [0, 1]", a.Object, a.Recency)
	}
	return ""
}

// account folds answers into the paper's two quantities (units fetched
// over the fixed network, client score) plus freshness and source mix.
type account struct {
	Answers   int
	Fresh     int
	Downloads int // answers served by a download
	Cache     int // answers served from the station cache
	ScoreSum  float64
	Units     int64 // fixed-network data units fetched
	Failed    int   // answers that failed check
	Problems  []string

	billed map[[3]int]bool // (station, window, object) downloads already counted
}

// add folds one answer in. A window downloads an object at most once,
// however many of its requests that download serves, so units are billed
// once per (station, window, object).
func (a *account) add(x answer) {
	if msg := x.check(); msg != "" {
		a.fail(msg)
		return
	}
	a.Answers++
	a.ScoreSum += x.Score
	if x.fresh() {
		a.Fresh++
	}
	if x.Source == "cache" {
		a.Cache++
		return
	}
	a.Downloads++
	if a.billed == nil {
		a.billed = make(map[[3]int]bool)
	}
	key := [3]int{x.Station, x.Window, x.Object}
	if !a.billed[key] {
		a.billed[key] = true
		a.Units += x.Size
	}
}

// fail records one failed output check; the first few are kept verbatim.
func (a *account) fail(msg string) {
	a.Failed++
	if len(a.Problems) < 5 {
		a.Problems = append(a.Problems, msg)
	}
}

func (a *account) unitsPerReq() float64 { return ratio(float64(a.Units), float64(a.Answers)) }
func (a *account) freshRatio() float64  { return ratio(float64(a.Fresh), float64(a.Answers)) }
func (a *account) meanScore() float64   { return ratio(a.ScoreSum, float64(a.Answers)) }

// windowed is one live request as recorded for the replay: the station
// and window that served it, its submission index, and when it returned.
type windowed struct {
	Station int
	Window  int
	Index   int
	Req     client.Request
	Done    time.Duration
}

// window is one recorded selection window, ready to be served again.
type window struct {
	Station int
	Window  int
	Done    time.Duration // earliest return among its requests
	Reqs    []client.Request
}

// regroup rebuilds the live run's windows from per-request records:
// requests are grouped by (station, window) in submission order, each
// station's windows keep their served order, and the stations' windows
// are merged by the time they returned. Merging by return time alone
// could reorder one station's windows, because the workers that observe
// returns are scheduled independently; the per-station order is what a
// replay must keep.
func regroup(recs []windowed) []window {
	type key struct{ st, w int }
	groups := make(map[key]*window)
	sorted := append([]windowed(nil), recs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Index < sorted[j].Index })
	for _, r := range sorted {
		k := key{r.Station, r.Window}
		g := groups[k]
		if g == nil {
			g = &window{Station: r.Station, Window: r.Window, Done: r.Done}
			groups[k] = g
		}
		g.Reqs = append(g.Reqs, r.Req)
		g.Done = min(g.Done, r.Done)
	}
	perStation := make(map[int][]window)
	for _, g := range groups {
		perStation[g.Station] = append(perStation[g.Station], *g)
	}
	stations := make([]int, 0, len(perStation))
	for st, ws := range perStation {
		sort.Slice(ws, func(i, j int) bool { return ws[i].Window < ws[j].Window })
		stations = append(stations, st)
	}
	sort.Ints(stations)
	out := make([]window, 0, len(groups))
	next := make([]int, len(stations))
	for len(out) < len(groups) {
		best := -1
		for i, st := range stations {
			ws := perStation[st]
			if next[i] == len(ws) {
				continue
			}
			if best < 0 || ws[next[i]].Done < perStation[stations[best]][next[best]].Done {
				best = i
			}
		}
		out = append(out, perStation[stations[best]][next[best]])
		next[best]++
	}
	return out
}

// merge folds another account into a; billing keys are assumed disjoint
// (each account saw different stations or windows).
func (a *account) merge(b *account) {
	a.Answers += b.Answers
	a.Fresh += b.Fresh
	a.Downloads += b.Downloads
	a.Cache += b.Cache
	a.ScoreSum += b.ScoreSum
	a.Units += b.Units
	a.Failed += b.Failed
	for _, p := range b.Problems {
		if len(a.Problems) < 5 {
			a.Problems = append(a.Problems, p)
		}
	}
}
