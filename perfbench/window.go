package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mobicache/internal/basestation"
	"mobicache/internal/catalog"
	"mobicache/internal/client"
	"mobicache/internal/core"
	"mobicache/internal/obs"
	"mobicache/internal/policy"
	"mobicache/internal/serve"
	"mobicache/internal/serve/ring"
	simserver "mobicache/internal/server"
)

// serve-window: two in-process engines sharded over a two-member ring,
// driven in open loop. See README.md for why each value was chosen.
const (
	winObjects     = 1000
	winRate        = 4000 // requests per second, round-robin over both engines
	winMaxBatch    = 32
	winMaxWait     = 5 * time.Millisecond
	winBudget      = 8 // data units per window
	winUpdateEvery = 10 * time.Millisecond
	winUpdateBatch = 20
	winSetups      = 5
	winReplayFor   = 2 * time.Second // untraced replay passes repeat at least this long
	winReplays     = 5               // and at least this many times
	zipfRead       = 1.1
)

// newStation builds one on-demand knapsack station over its own copy of
// the catalog, as stationd -serve does, with the per-window budget.
func newStation(sizes []int64, m *obs.StationMetrics) (*basestation.Station, *simserver.Server, error) {
	cat, err := catalog.New(sizes)
	if err != nil {
		return nil, nil, err
	}
	srv := simserver.New(cat, nil)
	sel, err := core.NewSelector(cat, core.Config{})
	if err != nil {
		return nil, nil, err
	}
	pol, err := policy.NewOnDemandKnapsack(sel)
	if err != nil {
		return nil, nil, err
	}
	st, err := basestation.New(basestation.Config{
		Catalog: cat, Server: srv, Policy: pol,
		BudgetPerTick: winBudget, CompulsoryMisses: true, Metrics: m,
	})
	if err != nil {
		return nil, nil, err
	}
	return st, srv, nil
}

// winFleet is the two-engine fleet. Each engine's peer fetch is the
// other engine's PeerLookup, timed as a span when a tracer is attached.
type winFleet struct {
	eng [2]*serve.Engine
	sm  [2]*obs.ServeMetrics
	stm [2]*obs.StationMetrics
	tr  atomic.Pointer[tracer]
}

func newWinFleet(sizes []int64) (*winFleet, error) {
	rg, err := ring.New(members, 0)
	if err != nil {
		return nil, err
	}
	f := &winFleet{}
	for i, self := range members {
		reg := obs.NewRegistry()
		f.stm[i] = obs.NewStationMetrics(reg, 0)
		f.sm[i] = obs.NewServeMetrics(reg)
		st, srv, err := newStation(sizes, f.stm[i])
		if err != nil {
			return nil, err
		}
		peers, err := serve.NewPeers(serve.PeersConfig{Self: self, Ring: rg, Fetch: f.fetch, Metrics: f.sm[i]})
		if err != nil {
			return nil, err
		}
		f.eng[i], err = serve.New(serve.Config{
			Station: st, Server: srv, MaxBatch: winMaxBatch, MaxWait: winMaxWait,
			Metrics: f.sm[i], Peers: peers,
		})
		if err != nil {
			return nil, err
		}
	}
	return f, nil
}

func (f *winFleet) fetch(peer string, id catalog.ID) (serve.PeerCopy, bool, error) {
	start := time.Now()
	i := 0
	if peer == members[1] {
		i = 1
	}
	pc, ok := f.eng[i].PeerLookup(id)
	f.tr.Load().record("peers.fetch", 0, -1, start, time.Now())
	return pc, ok, nil
}

func (f *winFleet) start() {
	for _, e := range f.eng {
		e.Start()
	}
}

func (f *winFleet) stop() {
	for _, e := range f.eng {
		e.Stop()
	}
}

// burst submits reqs to their stations as fast as `workers` concurrent
// callers can and returns the first error.
func (f *winFleet) burst(reqs []warmRequest, workers int) error {
	var next atomic.Int64
	var firstErr atomic.Pointer[error]
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				if _, err := f.eng[reqs[i].station].Submit(context.Background(), reqs[i].req); err != nil {
					firstErr.CompareAndSwap(nil, &err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if p := firstErr.Load(); p != nil {
		return *p
	}
	return nil
}

// counters is a snapshot of both engines' public counters.
type counters struct {
	windows, windowReqs, dropped                       uint64
	peerFetches, peerHits, peerFailures, peerShortCirc uint64
	stRequests, stUnits                                uint64
}

func (f *winFleet) counters() counters {
	var c counters
	for i := range f.eng {
		m, s := f.sm[i], f.stm[i]
		c.windows += m.Windows.Value()
		c.windowReqs += m.WindowRequests.Value()
		c.dropped += m.DroppedWindows.Value()
		c.peerFetches += m.PeerFetches.Value()
		c.peerHits += m.PeerHits.Value()
		c.peerFailures += m.PeerFailures.Value()
		c.peerShortCirc += m.PeerShortCircuits.Value()
		c.stRequests += s.Requests.Value()
		c.stUnits += s.DownloadUnits.Value()
	}
	return c
}

func (c counters) minus(b counters) counters {
	return counters{
		c.windows - b.windows, c.windowReqs - b.windowReqs, c.dropped - b.dropped,
		c.peerFetches - b.peerFetches, c.peerHits - b.peerHits, c.peerFailures - b.peerFailures,
		c.peerShortCirc - b.peerShortCirc, c.stRequests - b.stRequests, c.stUnits - b.stUnits,
	}
}

// notified is one update batch and when it was delivered.
type notified struct {
	at  time.Duration
	ids []catalog.ID
}

// openRec is one open-loop request's record.
type openRec struct {
	res  serve.Result
	err  error
	late time.Duration // due -> picked up by a submitter
	lat  time.Duration // due -> answered
	sub  time.Duration // time inside Submit
	done time.Duration // answered, since the schedule's start
}

// sleepUntil sleeps until t (no-op when t has passed).
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

func runServeWindow(opts options, tr *tracer) (*outcome, error) {
	sizes := catalogSizes(winObjects)
	n := winRate * opts.seconds
	reqs, err := drawRequests(deriveSeed(opts.seed, 1), winObjects, n, zipfRead, 0.5, 1)
	if err != nil {
		return nil, err
	}
	owner, err := ringOwner(members)
	if err != nil {
		return nil, err
	}
	warm := warmRequests(deriveSeed(opts.seed, 2), winObjects, owner)
	batches := int(time.Duration(opts.seconds)*time.Second/winUpdateEvery) + 1
	updates, err := drawUpdates(deriveSeed(opts.seed, 3), winObjects, batches, winUpdateBatch, zipfRead)
	if err != nil {
		return nil, err
	}

	// Set-up: build the fleet and fill its caches with a closed-loop
	// burst. Repeated; the median is reported and the last fleet is used.
	var setups sample
	var f *winFleet
	for k := 0; k < winSetups; k++ {
		if f != nil {
			f.stop()
		}
		start := time.Now()
		if f, err = newWinFleet(sizes); err != nil {
			return nil, err
		}
		f.start()
		if err := f.burst(warm, 64); err != nil {
			f.stop()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups.addDur(time.Since(start))
	}
	defer f.stop()
	f.tr.Store(tr)
	runtime.GC() // every run starts its measured phase from a collected heap

	o := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	recs := make([]openRec, n)
	var ups []notified
	before := f.counters()
	rt0 := readRuntime()
	cpu0, err := procCPU(os.Getpid())
	if err != nil {
		return nil, err
	}

	// Open loop: request i is due at t0 + i/rate. A fixed pool of
	// submitters, sized to the in-flight need (rate x a 20 ms latency
	// ceiling), takes due requests from the pacer; latency runs from the
	// due time, so a stalled pool shows as latency and as lateness.
	workers := winRate * 20 / 1000
	interval := time.Second / winRate
	t0 := time.Now().Add(5 * time.Millisecond)
	due := func(i int) time.Time { return t0.Add(time.Duration(i) * interval) }
	jobs := make(chan int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				d := due(i)
				pick := time.Now()
				res, err := f.eng[i%2].Submit(context.Background(), reqs[i])
				end := time.Now()
				recs[i] = openRec{res: res, err: err, late: pick.Sub(d), lat: end.Sub(d), sub: end.Sub(pick), done: end.Sub(t0)}
				root := tr.record("loadgen.request", 0, int64(i), d, end)
				tr.record("serve.Submit", root, int64(i), pick, end)
			}
		}()
	}
	stopUp := make(chan struct{})
	upDone := make(chan struct{})
	go func() {
		defer close(upDone)
		for k := 0; ; k++ {
			at := t0.Add(time.Duration(k) * winUpdateEvery)
			select {
			case <-stopUp:
				return
			case <-time.After(time.Until(at)):
			}
			ids := updates[k%len(updates)]
			s := time.Now()
			root := tr.reserve("loadgen.updates", 0)
			for _, e := range f.eng {
				cs := time.Now()
				e.NotifyUpdates(ids)
				tr.record("serve.NotifyUpdates", root, -1, cs, time.Now())
			}
			tr.finish(root, s, time.Now())
			ups = append(ups, notified{at: s.Sub(t0), ids: ids})
		}
	}()
	for i := 0; i < n; i++ {
		sleepUntil(due(i))
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	elapsed := time.Since(t0)
	close(stopUp)
	<-upDone
	cpu1, err := procCPU(os.Getpid())
	if err != nil {
		return nil, err
	}
	rt := readRuntime().since(rt0, n)
	delta := f.counters().minus(before)

	// Output checks and accounting.
	var acc account
	var lat, late, sub, wait sample
	wrecs := make([]windowed, 0, n)
	for i, r := range recs {
		if r.err != nil {
			o.fail(1, fmt.Sprintf("request %d: %v", i, r.err))
			continue
		}
		obj := int(reqs[i].Object)
		acc.add(answer{
			Station: i % 2, Window: r.res.Window, Object: obj, Size: sizes[obj],
			Target: reqs[i].Target, Source: r.res.Source.String(),
			Score: r.res.Score, Recency: r.res.Recency, Stale: r.res.Stale,
		})
		lat.add(r.lat.Seconds() * 1e3)
		late.add(r.late.Seconds() * 1e3)
		sub.add(r.sub.Seconds() * 1e3)
		wait.add(r.res.Wait.Seconds() * 1e3)
		wrecs = append(wrecs, windowed{Station: i % 2, Window: r.res.Window, Index: i, Req: reqs[i], Done: r.done})
	}
	for _, p := range acc.Problems {
		o.fail(0, p)
	}
	o.failed += acc.Failed
	o.attempted = n
	crossCheck(o, "dropped windows", delta.dropped, 0)
	crossCheck(o, "WindowRequests delta vs answered requests", delta.windowReqs, uint64(lat.len()))
	crossCheck(o, "station Requests delta vs answered requests", delta.stRequests, uint64(lat.len()))
	crossCheck(o, "station DownloadUnits delta vs billed units", delta.stUnits, uint64(acc.Units))

	// Replay: serve the recorded windows again, synchronously, on fresh
	// engines (and, traced, on bare stations): the window compute alone.
	windows := regroup(wrecs)
	// Start the replays from a collected heap: otherwise they overlap
	// the marking of the live phase's records, and their time depends on
	// where that cycle happened to be rather than on the window compute.
	runtime.GC()
	var passes sample
	for rs := time.Now(); passes.len() < winReplays || (tr == nil && time.Since(rs) < winReplayFor); {
		d, err := replayWindows(sizes, warm, windows, ups, tr)
		if err != nil {
			return nil, err
		}
		passes.addDur(d)
	}
	if tr != nil {
		if err := replayTicks(sizes, warm, windows, ups, tr); err != nil {
			return nil, err
		}
	}

	rss, err := procStatusMB(os.Getpid(), "VmHWM")
	if err != nil {
		return nil, err
	}
	lp95, _ := tail(lat.sorted(), 0.95)
	o.e2e = map[string]float64{
		"latency_p50_ms":         lat.median(),
		"latency_p95_ms":         lp95,
		"pass_s":                 passes.median(),
		"download_units_per_req": acc.unitsPerReq(),
		"mean_score":             acc.meanScore(),
		"ok_ratio":               ratio(float64(o.attempted-o.failed), float64(o.attempted)),
		"setup_s":                setups.median(),
		"peak_rss_mb":            rss,
	}
	l := o.layer
	for k, v := range rt {
		l[k] = v
	}
	l["loadgen.late_ms_p50"] = late.median()
	l["loadgen.late_ms_p99"] = late.q(0.99)
	if late.q(0.99) > float64(winMaxWait)/float64(time.Millisecond)/2 {
		l["loadgen.swamped"] = 1
		o.notes = append(o.notes, "WARNING: generator lateness p99 exceeds half the window timer; latency measures the generator")
	}
	l["loadgen.cpu_us_per_req"] = ratio(float64((cpu1 - cpu0).Microseconds()), float64(n))
	l["loadgen.fresh_ratio"] = acc.freshRatio()
	l["serve.submit_ms_p50"] = sub.median()
	l["serve.submit_ms_p99"] = sub.q(0.99)
	l["serve.wait_ms_p50"] = wait.median()
	l["serve.window_reqs_mean"] = ratio(float64(delta.windowReqs), float64(delta.windows))
	l["serve.windows_per_s"] = float64(delta.windows) / elapsed.Seconds()
	l["serve.dropped_windows"] = float64(delta.dropped)
	l["serve.latency_p99_ms"] = lat.q(0.99)
	l["peers.fetches_per_window"] = ratio(float64(delta.peerFetches), float64(delta.windows))
	l["peers.fetches_per_req"] = ratio(float64(delta.peerFetches), float64(lat.len()))
	l["peers.hit_ratio"] = ratio(float64(delta.peerHits), float64(delta.peerFetches))
	l["peers.failures"] = float64(delta.peerFailures)
	l["peers.short_circuits"] = float64(delta.peerShortCirc)
	l["basestation.download_share"] = ratio(float64(acc.Downloads), float64(acc.Answers))
	l["basestation.cache_hit_ratio"] = ratio(float64(acc.Cache), float64(acc.Answers))
	if tr != nil {
		us := func(name string, q float64) float64 { return tr.durations(name).q(q) * 1e6 }
		l["serve.notify_us_p99"] = us("serve.NotifyUpdates", 0.99)
		l["peers.fetch_us_p50"] = us("peers.fetch", 0.5)
		l["peers.fetch_us_p99"] = us("peers.fetch", 0.99)
		l["serve.window_us_p50"] = us("serve.ServeWindow", 0.5)
		l["serve.window_us_p99"] = us("serve.ServeWindow", 0.99)
		l["basestation.tick_us_p50"] = us("basestation.ServeTick", 0.5)
		l["basestation.tick_us_p99"] = us("basestation.ServeTick", 0.99)
	}
	o.notes = append(o.notes,
		fmt.Sprintf("open loop %d req/s for %ds: %d requests, %d windows, %d submitters", winRate, opts.seconds, n, delta.windows, workers),
		fmt.Sprintf("latency samples %d (p95 has %d beyond it); replayed %d windows x %d", lat.len(), lat.len()/20, len(windows), passes.len()),
		fmt.Sprintf("units %d, downloads %d, cache %d, fresh %d of %d answers", acc.Units, acc.Downloads, acc.Cache, acc.Fresh, acc.Answers),
	)
	return o, nil
}

// warmWindows groups the set-up requests into full windows per station,
// so a replay starts from the caches the live run started from.
func warmWindows(warm []warmRequest) []window {
	var ws []window
	var cur [2][]client.Request
	flush := func(st int) {
		if len(cur[st]) > 0 {
			ws = append(ws, window{Station: st, Reqs: cur[st]})
			cur[st] = nil
		}
	}
	for _, w := range warm {
		cur[w.station] = append(cur[w.station], w.req)
		if len(cur[w.station]) == winMaxBatch {
			flush(w.station)
		}
	}
	flush(0)
	flush(1)
	return ws
}

// replayWindows serves the recorded windows in their merged order on a
// fresh, unstarted fleet through ServeWindow (sync mode), delivering each
// update batch before the first window that returned after it. The
// fleet is first warmed as in set-up; only the recorded windows are
// timed, and the pass's wall time is returned. Its peer fetches are not
// traced, so peers.fetch_us_* stays the live run's.
func replayWindows(sizes []int64, warm []warmRequest, ws []window, ups []notified, tr *tracer) (time.Duration, error) {
	f, err := newWinFleet(sizes)
	if err != nil {
		return 0, err
	}
	for _, w := range warmWindows(warm) {
		if _, err := f.eng[w.Station].ServeWindow(w.Reqs); err != nil {
			return 0, fmt.Errorf("replay warm-up: %w", err)
		}
	}
	root := tr.reserve("replay.windows", 0)
	u := 0
	start := time.Now()
	for _, w := range ws {
		for ; u < len(ups) && ups[u].at <= w.Done; u++ {
			for _, e := range f.eng {
				e.NotifyUpdates(ups[u].ids)
			}
		}
		s := time.Now()
		if _, err := f.eng[w.Station].ServeWindow(w.Reqs); err != nil {
			return 0, fmt.Errorf("replay window %d/%d: %w", w.Station, w.Window, err)
		}
		tr.record("serve.ServeWindow", root, -1, s, time.Now())
	}
	d := time.Since(start)
	tr.finish(root, start, start.Add(d))
	return d, nil
}

// replayTicks serves the same windows as plain station ticks: no engine,
// no update queue, no peer phase. The gap to serve.ServeWindow is the
// engine's own cost.
func replayTicks(sizes []int64, warm []warmRequest, ws []window, ups []notified, tr *tracer) error {
	var st [2]*basestation.Station
	var srv [2]*simserver.Server
	var pending [2][]catalog.ID
	var tick [2]int
	for i := range st {
		var err error
		if st[i], srv[i], err = newStation(sizes, obs.NewStationMetrics(obs.NewRegistry(), 0)); err != nil {
			return err
		}
	}
	for _, w := range warmWindows(warm) {
		if _, err := st[w.Station].ServeTick(tick[w.Station], w.Reqs, nil); err != nil {
			return fmt.Errorf("replay warm-up: %w", err)
		}
		tick[w.Station]++
	}
	root := tr.reserve("replay.ticks", 0)
	u := 0
	start := time.Now()
	for _, w := range ws {
		for ; u < len(ups) && ups[u].at <= w.Done; u++ {
			for i := range pending {
				pending[i] = append(pending[i], ups[u].ids...)
			}
		}
		i := w.Station
		srv[i].ApplyUpdates(pending[i])
		s := time.Now()
		if _, err := st[i].ServeTick(tick[i], w.Reqs, pending[i]); err != nil {
			return fmt.Errorf("replay tick %d/%d: %w", i, tick[i], err)
		}
		tr.record("basestation.ServeTick", root, -1, s, time.Now())
		pending[i] = pending[i][:0]
		tick[i]++
	}
	tr.finish(root, start, time.Now())
	return nil
}
