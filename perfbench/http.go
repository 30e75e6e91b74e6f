package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"mobicache/internal/catalog"
	"mobicache/internal/client"
)

// serve-http: two stationd -serve processes, closed loop over two
// keep-alive connections. See README.md for why each value was chosen.
const (
	httpObjects     = 1000
	zipfHTTP        = 0.8
	httpOpsPerSec   = 12000 // operations per worker per -seconds
	httpWriteEvery  = 5     // every 5th operation is a write
	httpUpdateBatch = 5     // objects per POST /v1/updates
	httpSetups      = 3
	httpPassReads   = 500             // reads per station in one back-to-back pass
	httpPassFor     = 2 * time.Second // untraced passes repeat at least this long
	httpPasses      = 3               // and at least this many times
)

// station is one stationd process and the load connection to it.
type station struct {
	url  string
	cmd  *exec.Cmd
	done chan error
	load *http.Client // at most one connection: the closed-loop worker's
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// ctl carries set-up and counter calls, never load.
var ctl = &http.Client{Timeout: 10 * time.Second}

// startStations launches two serving-tier stationd processes peered
// with each other, waits until both answer /healthz, and installs the
// catalog on both.
func startStations(bin string, sizes []int64) ([2]*station, error) {
	var fleet [2]*station
	if bin == "" {
		return fleet, fmt.Errorf("serve-http needs -stationd")
	}
	var urls [2]string
	for i := range urls {
		p, err := freePort()
		if err != nil {
			return fleet, err
		}
		urls[i] = fmt.Sprintf("http://127.0.0.1:%d", p)
	}
	peers := urls[0] + "," + urls[1]
	for i, u := range urls {
		cmd := exec.Command(bin, "-addr", strings.TrimPrefix(u, "http://"), "-serve",
			"-self", u, "-peers", peers, "-serve-max-batch", "1", "-serve-budget", "2")
		// One P per station: two stations share the two CPUs the
		// benchmark assumes, and each daemon's handler-to-engine hand-offs
		// stay on one thread instead of waking another per request.
		cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
		if err := cmd.Start(); err != nil {
			stopStations(fleet)
			return fleet, fmt.Errorf("start stationd: %w", err)
		}
		st := &station{url: u, cmd: cmd, done: make(chan error, 1), load: &http.Client{
			Timeout:   10 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		}}
		go func() { st.done <- cmd.Wait() }()
		fleet[i] = st
	}
	for _, st := range fleet {
		if err := st.waitHealthy(10 * time.Second); err != nil {
			stopStations(fleet)
			return fleet, err
		}
	}
	for _, st := range fleet {
		if code, err := post(ctl, st.url+"/v1/catalog", map[string]any{"sizes": sizes}, nil); err != nil || code != http.StatusOK {
			stopStations(fleet)
			return fleet, fmt.Errorf("install catalog on %s: status %d, %v", st.url, code, err)
		}
	}
	return fleet, nil
}

func (st *station) waitHealthy(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case err := <-st.done:
			st.done <- err
			return fmt.Errorf("stationd %s exited during start-up: %v", st.url, err)
		default:
		}
		if resp, err := ctl.Get(st.url + "/healthz"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("stationd %s not healthy after %v", st.url, limit)
}

// stopStations terminates every started process and waits for it.
func stopStations(fleet [2]*station) {
	for _, st := range fleet {
		if st == nil {
			continue
		}
		st.load.CloseIdleConnections()
		_ = st.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-st.done:
		case <-time.After(5 * time.Second):
			_ = st.cmd.Process.Kill()
			<-st.done
		}
	}
	ctl.CloseIdleConnections()
}

// post sends body as JSON and decodes a 200 answer into out (if set).
func post(c *http.Client, url string, body, out any) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := c.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, fmt.Errorf("decode %s: %w", url, err)
		}
	}
	return resp.StatusCode, nil
}

// wire shapes of stationd's serving endpoints.
type wireRequest struct {
	Client int     `json:"client"`
	Object int     `json:"object"`
	Target float64 `json:"target"`
}

type wireAnswer struct {
	Window  int     `json:"window"`
	Source  string  `json:"source"`
	Peer    bool    `json:"peer"`
	Score   float64 `json:"score"`
	Recency float64 `json:"recency"`
	Stale   bool    `json:"stale"`
	Wait    float64 `json:"wait_seconds"`
}

type serveStatus struct {
	Windows           uint64 `json:"windows"`
	DroppedWindows    uint64 `json:"dropped_windows"`
	WindowRequests    uint64 `json:"window_requests"`
	PeerFetches       uint64 `json:"peer_fetches"`
	PeerHits          uint64 `json:"peer_hits"`
	PeerFailures      uint64 `json:"peer_failures"`
	PeerShortCircuits uint64 `json:"peer_short_circuits"`
}

// stationCounters is one station's public counters at one instant.
type stationCounters struct {
	status   serveStatus
	requests map[string]float64 // stationd_requests_total by endpoint
	cpu      time.Duration
}

func (st *station) counters() (stationCounters, error) {
	var c stationCounters
	resp, err := ctl.Get(st.url + "/v1/serve/status")
	if err != nil {
		return c, err
	}
	err = json.NewDecoder(resp.Body).Decode(&c.status)
	resp.Body.Close()
	if err != nil {
		return c, fmt.Errorf("decode serve status: %w", err)
	}
	if c.requests, err = scrapeRequests(st.url); err != nil {
		return c, err
	}
	c.cpu, err = procCPU(st.cmd.Process.Pid)
	return c, err
}

// scrapeRequests reads stationd_requests_total{endpoint="..."} from
// /metrics.
func scrapeRequests(url string) (map[string]float64, error) {
	resp, err := ctl.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	const prefix = `stationd_requests_total{endpoint="`
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		rest := line[len(prefix):]
		end := strings.Index(rest, `"}`)
		if end < 0 {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest[end+2:]), 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[rest[:end]] = v
	}
	return out, sc.Err()
}

// read sends one read and returns the answer and its latency.
func (st *station) read(r client.Request) (wireAnswer, int, time.Duration, error) {
	var a wireAnswer
	start := time.Now()
	code, err := post(st.load, st.url+"/v1/request", wireRequest{r.Client, int(r.Object), r.Target}, &a)
	return a, code, time.Since(start), err
}

// httpRun is one worker's account of the closed-loop phase.
type httpRun struct {
	acc          account
	reads        sample // ms
	writes       sample // ms
	late         sample // ms between an answer and the next send
	readN, write int
}

// answerOf converts a read's reply into the benchmark's accounting form.
func answerOf(stn int, r client.Request, a wireAnswer, sizes []int64) answer {
	return answer{
		Station: stn, Window: a.Window, Object: int(r.Object), Size: sizes[r.Object],
		Target: r.Target, Source: a.Source, Score: a.Score, Recency: a.Recency, Stale: a.Stale,
	}
}

func runServeHTTP(opts options, tr *tracer) (*outcome, error) {
	sizes := catalogSizes(httpObjects)
	// Each worker runs a fixed operation list sized to take about
	// -seconds; a fixed list (not a deadline) keeps every station's
	// sequence of reads and writes a function of the seed alone.
	ops := opts.seconds * httpOpsPerSec
	nReads := ops - ops/httpWriteEvery
	var reads, pass [2][]client.Request
	for k := range reads {
		var err error
		tag := uint64(10 * (k + 1))
		if reads[k], err = drawRequests(deriveSeed(opts.seed, tag), httpObjects, nReads, zipfHTTP, 0.5, 1); err != nil {
			return nil, err
		}
		if pass[k], err = drawRequests(deriveSeed(opts.seed, tag+2), httpObjects, httpPassReads, zipfHTTP, 0.5, 1); err != nil {
			return nil, err
		}
	}
	updates, err := drawUpdates(deriveSeed(opts.seed, 3), httpObjects, ops/httpWriteEvery, httpUpdateBatch, zipfHTTP)
	if err != nil {
		return nil, err
	}

	// Set-up: start both daemons, install the catalog, warm both caches
	// with one sequential read of every object on each station. Repeated;
	// the median is reported.
	var setups sample
	var fleet [2]*station
	for k := 0; k < httpSetups; k++ {
		if fleet[0] != nil {
			stopStations(fleet)
		}
		start := time.Now()
		// A port freePort found can be taken before stationd binds it;
		// one retry on fresh ports covers that race.
		if fleet, err = startStations(opts.stationd, sizes); err != nil {
			if fleet, err = startStations(opts.stationd, sizes); err != nil {
				return nil, err
			}
		}
		owner, err := ringOwner([]string{fleet[0].url, fleet[1].url})
		if err != nil {
			stopStations(fleet)
			return nil, err
		}
		for _, w := range warmRequests(deriveSeed(opts.seed, 2), httpObjects, owner) {
			st := fleet[w.station]
			if _, code, _, err := st.read(w.req); err != nil || code != http.StatusOK {
				stopStations(fleet)
				return nil, fmt.Errorf("warm-up read on %s: status %d, %v", st.url, code, err)
			}
		}
		setups.addDur(time.Since(start))
	}
	defer stopStations(fleet)

	o := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	var before [2]stationCounters
	for i, st := range fleet {
		if before[i], err = st.counters(); err != nil {
			return nil, err
		}
	}
	rt0 := readRuntime()
	self0, err := procCPU(os.Getpid())
	if err != nil {
		return nil, err
	}

	// Closed loop: worker i owns the connection to station i and sends
	// its next operation as soon as the previous one is answered; every
	// 5th operation posts the next update batch to its station, so both
	// stations see every batch. The gap between one answer and the next
	// send is the generator's own time, reported as its lateness.
	var runs [2]httpRun
	var wg sync.WaitGroup
	loopStart := time.Now()
	for i := range fleet {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, h := fleet[i], &runs[i]
			var prev time.Time
			for j := 0; j < ops; j++ {
				id := int64(i)<<32 | int64(j)
				if j > 0 {
					h.late.add(time.Since(prev).Seconds() * 1e3)
				}
				if j%httpWriteEvery == httpWriteEvery-1 {
					s := time.Now()
					code, err := post(st.load, st.url+"/v1/updates", map[string][]catalog.ID{"objects": updates[h.write]}, nil)
					e := time.Now()
					tr.record("http.POST /v1/updates", 0, id, s, e)
					h.write++
					if err != nil || code != http.StatusOK {
						h.acc.fail(fmt.Sprintf("updates on %s: status %d, %v", st.url, code, err))
					} else {
						h.writes.add(e.Sub(s).Seconds() * 1e3)
					}
				} else {
					r := reads[i][h.readN]
					h.readN++
					s := time.Now()
					a, code, d, err := st.read(r)
					tr.record("http.POST /v1/request", 0, id, s, s.Add(d))
					if err != nil || code != http.StatusOK {
						h.acc.fail(fmt.Sprintf("read on %s: status %d, %v", st.url, code, err))
					} else {
						h.reads.add(d.Seconds() * 1e3)
						h.acc.add(answerOf(i, r, a, sizes))
					}
				}
				prev = time.Now()
			}
		}()
	}
	wg.Wait()
	loopWall := time.Since(loopStart)
	self1, err := procCPU(os.Getpid())
	if err != nil {
		return nil, err
	}
	var after [2]stationCounters
	for i, st := range fleet {
		if after[i], err = st.counters(); err != nil {
			return nil, err
		}
	}

	// Back-to-back pass: a fixed list of reads per station, one at a
	// time, no pause and no writes: the daemons' unloaded service time.
	var passes sample
	var passAcc account
	for ps := time.Now(); passes.len() < httpPasses || (tr == nil && time.Since(ps) < httpPassFor); {
		root := tr.reserve("pass.http", 0)
		start := time.Now()
		for i, st := range fleet {
			for _, r := range pass[i] {
				s := time.Now()
				a, code, d, err := st.read(r)
				tr.record("http.POST /v1/request (pass)", root, -1, s, s.Add(d))
				if err != nil || code != http.StatusOK {
					passAcc.fail(fmt.Sprintf("pass read on %s: status %d, %v", st.url, code, err))
					continue
				}
				passAcc.add(answerOf(i, r, a, sizes))
			}
		}
		d := time.Since(start)
		tr.finish(root, start, start.Add(d))
		passes.addDur(d)
	}
	var hwm, rss float64
	for _, st := range fleet {
		h, err := procStatusMB(st.cmd.Process.Pid, "VmHWM")
		if err != nil {
			return nil, err
		}
		r, err := procStatusMB(st.cmd.Process.Pid, "VmRSS")
		if err != nil {
			return nil, err
		}
		hwm, rss = hwm+h, rss+r
	}
	rt := readRuntime().since(rt0, runs[0].readN+runs[1].readN+runs[0].write+runs[1].write)

	// Accounting and checks.
	var acc account
	var lat, writes, late sample
	var readsSent, writesSent int
	for i := range runs {
		h := &runs[i]
		acc.merge(&h.acc)
		lat = append(lat, h.reads...)
		writes = append(writes, h.writes...)
		late = append(late, h.late...)
		readsSent += h.readN
		writesSent += h.write
		d, b := after[i], before[i]
		url := fleet[i].url
		crossCheck(o, url+" dropped windows", d.status.DroppedWindows-b.status.DroppedWindows, 0)
		crossCheck(o, url+" window_requests delta vs reads sent",
			d.status.WindowRequests-b.status.WindowRequests, uint64(h.readN))
		crossCheck(o, url+` stationd_requests_total{endpoint="request"} delta vs reads sent`,
			uint64(d.requests["request"]-b.requests["request"]), uint64(h.readN))
		crossCheck(o, url+` stationd_requests_total{endpoint="updates"} delta vs writes sent`,
			uint64(d.requests["updates"]-b.requests["updates"]), uint64(h.write))
	}
	o.attempted += readsSent + writesSent + passes.len()*2*httpPassReads
	// The pass's answers are checked, not accounted: how many passes fit
	// in the run depends on the machine, and the e2e account must not.
	o.failed += acc.Failed + passAcc.Failed
	for _, p := range append(acc.Problems, passAcc.Problems...) {
		o.fail(0, p)
	}

	sent := float64(readsSent + writesSent)
	var dStatus serveStatus
	var dReq = map[string]float64{}
	var dCPU time.Duration
	for i := range fleet {
		a, b := after[i], before[i]
		dStatus.Windows += a.status.Windows - b.status.Windows
		dStatus.PeerFetches += a.status.PeerFetches - b.status.PeerFetches
		dStatus.PeerFailures += a.status.PeerFailures - b.status.PeerFailures
		dStatus.PeerShortCircuits += a.status.PeerShortCircuits - b.status.PeerShortCircuits
		for k, v := range a.requests {
			dReq[k] += v - b.requests[k]
		}
		dCPU += a.cpu - b.cpu
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
		"peak_rss_mb":            hwm,
	}
	l := o.layer
	for k, v := range rt {
		l[k] = v
	}
	l["loadgen.late_ms_p50"] = late.median()
	l["loadgen.late_ms_p99"] = late.q(0.99)
	l["loadgen.cpu_us_per_req"] = ratio(float64((self1 - self0).Microseconds()), sent)
	l["loadgen.fresh_ratio"] = acc.freshRatio()
	l["stationd.request_ms_p50"] = lat.median()
	l["stationd.request_ms_p95"] = lp95
	l["stationd.latency_p99_ms"] = lat.q(0.99)
	l["stationd.updates_ms_p50"] = writes.median()
	l["stationd.updates_ms_p95"] = writes.q(0.95)
	l["stationd.cpu_us_per_req"] = ratio(float64(dCPU.Microseconds()), sent)
	l["stationd.rss_mb"] = rss
	l["stationd.requests_total.request"] = dReq["request"]
	l["stationd.requests_total.updates"] = dReq["updates"]
	l["stationd.requests_total.peer_object"] = dReq["peer_object"]
	l["peers.fetches_per_req"] = ratio(float64(dStatus.PeerFetches), float64(readsSent))
	l["peers.failures"] = float64(dStatus.PeerFailures)
	l["peers.short_circuits"] = float64(dStatus.PeerShortCircuits)
	l["basestation.download_share"] = ratio(float64(acc.Downloads), float64(acc.Answers))
	l["basestation.cache_hit_ratio"] = ratio(float64(acc.Cache), float64(acc.Answers))
	o.notes = append(o.notes,
		fmt.Sprintf("closed loop over 2 connections, %d operations each, took %.1fs: %d reads, %d writes, %d windows",
			ops, loopWall.Seconds(), readsSent, writesSent, dStatus.Windows),
		fmt.Sprintf("read latency samples %d (p95 has %d beyond it); back-to-back passes %d x %d reads", lat.len(), lat.len()/20, passes.len(), 2*httpPassReads),
		fmt.Sprintf("units %d, downloads %d, cache %d, fresh %d of %d answers", acc.Units, acc.Downloads, acc.Cache, acc.Fresh, acc.Answers),
	)
	return o, nil
}
