package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mclg/internal/bookshelf"
	"mclg/internal/design"
	"mclg/internal/regress"
	"mclg/internal/serve"
	srvreport "mclg/internal/serve/report"
)

// serve-mix load: an open-loop Poisson schedule at serveRate requests per
// second, drawn from the seed, each request timed from its due time.
const (
	// serveRate is about 40% of the capacity measured at the commit that
	// introduced the benchmark on a 2-vCPU VM: at 30 requests/s the two
	// connections were busy and the generator ran 0.28 s late at p90.
	serveRate = 15.0
	// serveLimit is the latency limit goodput counts against: the p90
	// measured near that capacity (0.36 s at 30/s) with some headroom.
	serveLimit = 500 * time.Millisecond
	// Request-class shares: byte-identical repeats (the result cache's
	// case), near-match re-uploads of a known topology (the warm store's
	// case) and cold uploads of unseen topologies. Sorted by latency the
	// classes fall in that order, so p50 lands in the middle of the
	// near-match group and p90 inside the cold group.
	shareRepeat = 0.25
	shareNear   = 0.50
	// serveBaseTopologies are uploaded during set-up, so near-matches have
	// known topologies from the first request on.
	serveBaseTopologies = 4
	// Near-matches re-upload one of the last nearWindow topologies and
	// repeats resend one of the last repeatWindow request bodies, well
	// inside the server's default warm store (32) and result cache (128).
	nearWindow   = 8
	repeatWindow = 16
	// nearJitterSites is the largest x move of a near-match, in sites:
	// small enough to keep every cell's row and order, so the warm store's
	// structure signature still matches.
	nearJitterSites = 0.001
)

// serveDesigns are the cold-upload families, cycled with fresh seeds.
var serveDesigns = []suiteDesign{
	{"fft_2", 0.03},
	{"des_perf_a", 0.01},
	{"matrix_mult_b", 0.01},
	{"edit_dist_a", 0.01},
	{"pci_bridge32_a", 0.04},
	{"fft_b", 0.03},
}

type requestClass int

const (
	classRepeat requestClass = iota
	classNear
	classCold
)

var classNames = [...]string{"repeat", "near", "cold"}

// upload is one distinct request body.
type upload struct {
	body  []byte
	files map[string]string
	cells int
}

// arrival is one scheduled request.
type arrival struct {
	due    time.Duration // offset from the start of the timed phase
	class  requestClass
	upload int // index into serveInputs.uploads
}

type serveInputs struct {
	uploads  []upload
	base     []int // uploads sent during set-up
	schedule []arrival
}

// bookshelfFiles renders d as Bookshelf component texts, keyed as the
// serve API expects.
func bookshelfFiles(d *design.Design) (map[string]string, error) {
	dir, err := os.MkdirTemp("", "perfbench-bookshelf-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := bookshelf.Write(d, filepath.Join(dir, "d.aux")); err != nil {
		return nil, err
	}
	files := map[string]string{}
	for _, comp := range []string{"nodes", "nets", "pl", "scl", "wts"} {
		b, err := os.ReadFile(filepath.Join(dir, "d."+comp))
		if err != nil {
			return nil, err
		}
		files[comp] = string(b)
	}
	return files, nil
}

// newUpload renders d as a request that asks for the placement back, as a
// client that uses the result must.
func newUpload(d *design.Design) (upload, error) {
	files, err := bookshelfFiles(d)
	if err != nil {
		return upload{}, err
	}
	body, err := json.Marshal(serve.Request{Files: files, IncludePlacement: true})
	if err != nil {
		return upload{}, err
	}
	return upload{body: body, files: files, cells: d.NumMovable()}, nil
}

// parseFiles reads uploaded component texts the way the server does. The
// placement check needs the server's view of the design: Bookshelf has no
// rail attribute, so the parsed cells' rails differ from the generated
// design's.
func parseFiles(files map[string]string) (*design.Design, error) {
	dir, err := os.MkdirTemp("", "perfbench-parse-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var f bookshelf.Files
	for comp, text := range files {
		p := filepath.Join(dir, "d."+comp)
		if err := os.WriteFile(p, []byte(text), 0o600); err != nil {
			return nil, err
		}
		switch comp {
		case "nodes":
			f.Nodes = p
		case "nets":
			f.Nets = p
		case "pl":
			f.Pl = p
		case "scl":
			f.Scl = p
		case "wts":
			f.Wts = p
		}
	}
	return bookshelf.ReadFiles(f, "upload")
}

// jitter returns a copy of d whose global x positions moved by at most
// nearJitterSites sites.
func jitter(d *design.Design, rng *rand.Rand) *design.Design {
	j := d.Clone()
	for _, c := range j.Cells {
		if !c.Fixed {
			c.GX += (2*rng.Float64() - 1) * nearJitterSites * j.SiteW
			c.X = c.GX
		}
	}
	return j
}

// genServeInputs draws the schedule for length seconds and renders every
// request body.
func genServeInputs(seed int64, length time.Duration) (*serveInputs, error) {
	rng := rand.New(rand.NewSource(mix(seed, -1)))
	in := &serveInputs{}
	var (
		topos  []*design.Design // uploaded topologies, oldest first
		sent   []int            // uploads sent so far, oldest first
		coldID int
	)
	newCold := func() (int, error) {
		sd := serveDesigns[coldID%len(serveDesigns)]
		d, err := generate(seed, coldID, sd)
		coldID++
		if err != nil {
			return 0, err
		}
		u, err := newUpload(d)
		if err != nil {
			return 0, err
		}
		topos = append(topos, d)
		in.uploads = append(in.uploads, u)
		return len(in.uploads) - 1, nil
	}
	for i := 0; i < serveBaseTopologies; i++ {
		id, err := newCold()
		if err != nil {
			return nil, err
		}
		in.base = append(in.base, id)
		sent = append(sent, id)
	}
	// A Poisson schedule conditioned on its count: rate × length arrivals
	// at uniform times, and exact class shares in a seeded order, so every
	// seed offers the same load and mix.
	n := int(math.Round(serveRate * length.Seconds()))
	dues := make([]float64, n)
	for i := range dues {
		dues[i] = rng.Float64() * length.Seconds()
	}
	sort.Float64s(dues)
	classes := make([]requestClass, n)
	nRepeat, nNear := int(math.Round(shareRepeat*float64(n))), int(math.Round(shareNear*float64(n)))
	for i := range classes {
		switch {
		case i < nRepeat:
			classes[i] = classRepeat
		case i < nRepeat+nNear:
			classes[i] = classNear
		default:
			classes[i] = classCold
		}
	}
	rng.Shuffle(n, func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	for i := 0; i < n; i++ {
		a := arrival{due: time.Duration(dues[i] * float64(time.Second)), class: classes[i]}
		switch a.class {
		case classRepeat:
			recent := sent[max(0, len(sent)-repeatWindow):]
			a.upload = recent[rng.Intn(len(recent))]
		case classNear:
			recent := topos[max(0, len(topos)-nearWindow):]
			u, err := newUpload(jitter(recent[rng.Intn(len(recent))], rng))
			if err != nil {
				return nil, err
			}
			in.uploads = append(in.uploads, u)
			a.upload = len(in.uploads) - 1
		default:
			id, err := newCold()
			if err != nil {
				return nil, err
			}
			a.upload = id
		}
		sent = append(sent, a.upload)
		in.schedule = append(in.schedule, a)
	}
	return in, nil
}

// jobLog captures the server's "job done" records through its Logger.
type jobLog struct {
	mu   sync.Mutex
	jobs []jobRecord
}

type jobRecord struct {
	queue, parse, solve, total float64 // seconds
}

func (l *jobLog) Enabled(context.Context, slog.Level) bool { return true }
func (l *jobLog) WithAttrs([]slog.Attr) slog.Handler       { return l }
func (l *jobLog) WithGroup(string) slog.Handler            { return l }

func (l *jobLog) Handle(_ context.Context, rec slog.Record) error {
	if rec.Message != "job done" {
		return nil
	}
	var j jobRecord
	rec.Attrs(func(a slog.Attr) bool {
		v := a.Value.Float64
		switch a.Key {
		case "queue_ms":
			j.queue = v() / 1000
		case "parse_ms":
			j.parse = v() / 1000
		case "solve_ms":
			j.solve = v() / 1000
		case "total_ms":
			j.total = v() / 1000
		}
		return true
	})
	l.mu.Lock()
	l.jobs = append(l.jobs, j)
	l.mu.Unlock()
	return nil
}

// liveServer is a serve.Server on a loopback listener.
type liveServer struct {
	srv    *serve.Server
	http   *http.Server
	url    string
	client *http.Client
	done   chan struct{}
}

// startServer starts the service with its default configuration; a
// non-nil log captures its per-job records.
func startServer(log *jobLog) (*liveServer, error) {
	cfg := serve.Config{}
	if log != nil {
		cfg.Logger = slog.New(log)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := serve.New(cfg)
	ls := &liveServer{
		srv:  s,
		http: &http.Server{Handler: s.Handler()},
		url:  "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			Proxy:               nil, // loopback; never an environment proxy
			MaxConnsPerHost:     runtime.NumCPU(),
			MaxIdleConnsPerHost: runtime.NumCPU(),
		}},
		done: make(chan struct{}),
	}
	go func() {
		defer close(ls.done)
		_ = ls.http.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	return ls, nil
}

// stop shuts the listener, drains the job pool and waits for both.
func (ls *liveServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = ls.http.Shutdown(ctx)
	<-ls.done
	_ = ls.srv.Drain(ctx)
	ls.client.CloseIdleConnections()
}

// post sends one legalization request and decodes the report; any status
// but 200 is an error.
func (ls *liveServer) post(body []byte) (*srvreport.Report, error) {
	resp, err := ls.client.Post(ls.url+"/v1/legalize", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	var rep srvreport.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// counter reads one unlabeled series from /metrics.
func (ls *liveServer) counter(name string) (float64, error) {
	resp, err := ls.client.Get(ls.url + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == name {
			return strconv.ParseFloat(f[1], 64)
		}
	}
	return 0, fmt.Errorf("/metrics has no %s", name)
}

// serveState is one set-up: the inputs and a started server that has
// already answered the base uploads.
type serveState struct {
	in  *serveInputs
	srv *liveServer
}

// warmUp sends the base uploads; the first is the untimed warm-up op.
func warmUp(ls *liveServer, in *serveInputs) error {
	for _, id := range in.base {
		if _, err := ls.post(in.uploads[id].body); err != nil {
			return fmt.Errorf("base upload %d: %w", id, err)
		}
	}
	return nil
}

func setupServe(seed int64, length time.Duration) (*serveState, error) {
	in, err := genServeInputs(seed, length)
	if err != nil {
		return nil, err
	}
	ls, err := startServer(nil)
	if err != nil {
		return nil, err
	}
	if err := warmUp(ls, in); err != nil {
		ls.stop()
		return nil, err
	}
	return &serveState{in: in, srv: ls}, nil
}

// outcome is one request's result as the client saw it.
type outcome struct {
	rep       *srvreport.Report
	err       error
	due, sent time.Time
	done      time.Time
}

// drive replays the first n arrivals open loop: a dispatcher releases each
// request at its due time to at most nproc senders, one connection each,
// so a stalled server delays later requests and their latency, measured
// from the due time, shows it.
func drive(ls *liveServer, in *serveInputs, n int) ([]outcome, time.Time) {
	out := make([]outcome, n)
	work := make(chan int)
	var wg sync.WaitGroup
	for s := 0; s < runtime.NumCPU(); s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				out[i].sent = time.Now()
				out[i].rep, out[i].err = ls.post(in.uploads[in.schedule[i].upload].body)
				out[i].done = time.Now()
			}
		}()
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(in.schedule[i].due)
		time.Sleep(time.Until(due))
		out[i].due = due
		work <- i
	}
	close(work)
	wg.Wait()
	return out, start
}

// lateness is the p90 of how long after its due time each request was
// sent: how far the load generator fell behind.
func lateness(out []outcome) float64 {
	late := make([]float64, len(out))
	for i, o := range out {
		late[i] = o.sent.Sub(o.due).Seconds()
	}
	p90, _ := percentile(late, 0.9)
	return p90
}

// latencies returns each request's latency from its due time; a failed
// request counts as infinitely late.
func latencies(out []outcome) []float64 {
	lat := make([]float64, len(out))
	for i, o := range out {
		if o.err != nil {
			lat[i] = math.Inf(1)
		} else {
			lat[i] = o.done.Sub(o.due).Seconds()
		}
	}
	return lat
}

// checkServe applies the per-request checks: 200, legal by the server's
// checker, and one pos_hash per distinct body (so a cache hit carries its
// miss's hash). Then, for each distinct body, the returned placement is
// checked with design.CheckLegal on the parsed upload and must hash to the
// reported pos_hash. It returns which requests passed.
func checkServe(r *report, in *serveInputs, out []outcome) []bool {
	ok := make([]bool, len(out))
	first := map[int]int{} // upload → first request answered for it
	for i, o := range out {
		id := in.schedule[i].upload
		switch {
		case o.err != nil:
			r.opFailed("request %d: %v", i, o.err)
			continue
		case !o.rep.Legal:
			r.opFailed("request %d: server reports an illegal placement", i)
			continue
		}
		if f, seen := first[id]; seen && out[f].rep.PosHash != o.rep.PosHash {
			r.opFailed("request %d (%s, cache %s): pos_hash %s, but the same body gave %s",
				i, classNames[in.schedule[i].class], o.rep.Cache, o.rep.PosHash, out[f].rep.PosHash)
			continue
		} else if !seen {
			first[id] = i
		}
		ok[i] = true
	}
	for id, f := range first {
		if err := checkPlacement(in.uploads[id], out[f].rep); err != nil {
			r.fail("upload %d: %v", id, err)
			for i := range out {
				if in.schedule[i].upload == id && ok[i] {
					ok[i] = false
					r.failed++
				}
			}
		}
	}
	return ok
}

func checkPlacement(u upload, rep *srvreport.Report) error {
	d, err := parseFiles(u.files)
	if err != nil {
		return err
	}
	if !rep.ApplyPlacement(d) {
		return errors.New("response carries no placement for the uploaded cells")
	}
	if err := checkLegal(d); err != nil {
		return err
	}
	if h := regress.PositionHash(d); h != rep.PosHash {
		return fmt.Errorf("placement hashes to %s, response says %s", h, rep.PosHash)
	}
	return nil
}

func runServeMix(cfg runConfig, r *report) error {
	st, setupS, err := repeatSetup(func() (*serveState, error) { return setupServe(cfg.seed, cfg.seconds) },
		func(s *serveState) { s.srv.stop() })
	if err != nil {
		return err
	}
	defer st.srv.stop()
	if cfg.trace {
		return traceServeMix(cfg, st, r)
	}
	r.set("setup_s", setupS)
	in := st.in
	n := len(in.schedule)
	ph := beginPhase()
	out, start := drive(st.srv, in, n)
	end := time.Now()
	u1 := readUsage()
	wall := max(end.Sub(start), cfg.seconds)
	var c cost
	c.add(ph.u0, u1, n)
	ph.health(r, fmt.Sprintf(" lateness_p90_s=%.6f", lateness(out)))

	r.attempted = n
	ok := checkServe(r, in, out)
	lat := latencies(out)
	var (
		cells, good, okN int
		q                quality
		counted          = map[int]bool{}
	)
	classLat := make([][]float64, len(classNames))
	for i, o := range out {
		a := in.schedule[i]
		classLat[a.class] = append(classLat[a.class], lat[i])
		if !ok[i] {
			lat[i] = math.Inf(1)
			continue
		}
		okN++
		cells += in.uploads[a.upload].cells
		if lat[i] <= serveLimit.Seconds() {
			good++
		}
		if o.rep.Cache == "miss" && !counted[a.upload] {
			counted[a.upload] = true
			q.add(o.rep.DisplacementSites, o.rep.MaxDispSites, o.rep.DeltaHPWL)
		}
	}
	r.set("ok_frac", float64(okN)/float64(n))
	r.printed("cpu_ms_per_op", "ms", c.cpuMSPerOp(), "")
	r.set("alloc_mb_per_op", c.allocMBPerOp())
	q.set(r)
	r.note("serve-mix: %d requests at %.1f/s over %.2fs (%d ok), %d solved placements in the quality figures",
		n, serveRate, wall.Seconds(), okN, q.n)
	r.printed("cells_per_s", "cells/s", float64(cells)/wall.Seconds(), "")
	noteLatency(r, lat)
	for k, l := range classLat {
		p50, _ := percentile(l, 0.5)
		r.note("class %-6s n=%d p50_s=%.6f", classNames[k], len(l), p50)
	}
	r.printed("goodput_rps", "1/s", float64(good)/wall.Seconds(), fmt.Sprintf("latency limit %gs", serveLimit.Seconds()))
	return nil
}

func traceServeMix(cfg runConfig, st *serveState, r *report) error {
	in := st.in
	n := 0
	for n < len(in.schedule) && in.schedule[n].due < cfg.seconds/2 {
		n++
	}
	if n == 0 {
		return errors.New("schedule has no request in the first half of the run")
	}
	r.attempted = n
	ph := beginPhase()
	ref, _ := drive(st.srv, in, n)
	var refCost cost
	refCost.add(ph.u0, readUsage(), n)
	refLat := latencies(ref)
	checkServe(r, in, ref)

	log := &jobLog{}
	ls, err := startServer(log)
	if err != nil {
		return err
	}
	defer ls.stop()
	if err := warmUp(ls, in); err != nil {
		return err
	}
	log.mu.Lock()
	log.jobs = nil // the set-up jobs are not part of the traced phase
	log.mu.Unlock()
	saved0, err := ls.counter("mclgd_warm_iterations_saved_total")
	if err != nil {
		return err
	}
	out, start := drive(ls, in, n)
	wall := max(time.Since(start), cfg.seconds/2)
	saved1, err := ls.counter("mclgd_warm_iterations_saved_total")
	if err != nil {
		return err
	}

	t := newTracer()
	var hits, misses, warm, near, nearWarm int
	var httpS float64
	for i, o := range out {
		root := t.record(i+1, 0, "serve.request", o.due, o.done)
		t.record(i+1, root, "serve.http", o.sent, o.done)
		if o.err != nil {
			r.opFailed("traced request %d: %v", i, o.err)
			continue
		}
		if ref[i].err == nil && o.rep.PosHash != ref[i].rep.PosHash {
			r.opFailed("traced request %d: pos_hash %s differs from the untraced run's %s", i, o.rep.PosHash, ref[i].rep.PosHash)
		}
		httpS += o.done.Sub(o.sent).Seconds()
		if o.rep.Cache == "hit" {
			hits++
		} else {
			misses++
			if o.rep.Warm {
				warm++
			}
		}
		if in.schedule[i].class == classNear {
			near++
			if o.rep.Warm {
				nearWarm++
			}
		}
	}
	var queue, parse, solve, total float64
	log.mu.Lock()
	for _, j := range log.jobs {
		queue += j.queue
		parse += j.parse
		solve += j.solve
		total += j.total
	}
	jobs := len(log.jobs)
	log.mu.Unlock()

	per := func(v float64) float64 { return v / float64(n) }
	r.set("serve.queue_s", per(queue))
	r.set("serve.parse_s", per(parse))
	r.set("serve.solve_s", per(solve))
	r.set("serve.http_s", per(httpS-total))
	r.set("serve.busy_frac", total/(wall.Seconds()*2)) // serve.Config{} runs 2 pool workers
	r.set("serve.cache_hit_frac", per(float64(hits)))
	if near > 0 {
		r.set("serve.warm_hit_frac", float64(nearWarm)/float64(near))
	}
	r.set("serve.warm_iters_saved", per(saved1-saved0))
	if misses > 0 {
		r.set("core.warm_seeded_frac", float64(warm)/float64(misses))
	}
	r.set("go.gc_cpu_s", per(refCost.gcCPU))

	ph.health(r, fmt.Sprintf(" lateness_p90_s=%.6f", lateness(out)))
	lat := latencies(out)
	r.note("serve-mix traced: %d requests, %d jobs logged; untraced p50 %.6fs, traced p50 %.6fs, tracing overhead %+.1f%%",
		n, jobs, median(refLat), median(lat), 100*(median(lat)/median(refLat)-1))
	noteSelfTimes(r, selfTimes(t.spans), n, func(string) bool { return true })
	return writeSpans(cfg, t, r)
}
