// Command syncbench is the repository's end-to-end benchmark. It launches
// the real stacksync-server on a fresh data directory, drives in-process
// client.Client devices against it over loopback, checks every synced byte,
// kill -9s and restarts the server to check that every acknowledged version
// survived, and prints one JSON result line. See README.md.
//
//	python3 syncbench/run.py --workload commit-storm --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"stacksync/internal/codec"
	"stacksync/internal/core"
	"stacksync/internal/metrics"
	"stacksync/internal/obs"
)

// instances is the pinned SyncService pool size (-min = -max), so the
// reactive supervisor never rescales mid-run.
const instances = 2

// setups is how many times a run sets up from scratch; setup_s is the median.
const setups = 3

// warmup is how long each workload runs, uncounted, before the phase.
const warmup = 3 * time.Second

// maxLateMs bounds the generator's p99 lateness; a run beyond it is invalid.
const maxLateMs = 100.0

type config struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	server   string // stacksync-server binary
	work     string // scratch directory for data dirs and logs
	spans    string // directory the traced run writes its spans to
	tree     string // hash of the measured source tree
}

type runner struct {
	cfg     config
	w       *workload
	rec     *recorder
	srv     *server
	fleet   *fleet
	writers map[string]*device
	readers map[string][]*device

	resyncErrs atomic.Int64
}

func main() {
	var cfg config
	var traced int
	flag.StringVar(&cfg.workload, "workload", "", "commit-storm, bulk-files or shared-edits")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 20, "length of the measured phase")
	flag.IntVar(&traced, "trace", 0, "1 records per-layer spans and scrapes the server's /metrics")
	flag.StringVar(&cfg.server, "server", "", "path of the stacksync-server binary")
	flag.StringVar(&cfg.work, "work", "", "scratch directory")
	flag.StringVar(&cfg.spans, "spans", "", "directory for the traced run's spans (default: -work)")
	flag.StringVar(&cfg.tree, "tree", "", "hash of the measured source tree")
	flag.Parse()
	cfg.traced = traced == 1
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "syncbench:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	w := workloads[cfg.workload]
	if w == nil {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.server == "" || cfg.work == "" || cfg.seconds < 1 {
		return fmt.Errorf("-server, -work and a positive -seconds are required")
	}
	if cfg.spans == "" {
		cfg.spans = cfg.work
	}
	for _, dir := range []string{cfg.work, cfg.spans} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	r := &runner{cfg: cfg, w: w}
	if cfg.traced {
		r.rec = newRecorder()
		r.rec.enabled.Store(false)
	}
	defer r.teardown()

	var setupTimes []float64
	var in *inputs
	for i := 0; i < setups; i++ {
		in = w.prepare(cfg.seed)
		d, err := r.setup(i, in)
		if err != nil {
			return fmt.Errorf("setup %d: %w", i, err)
		}
		setupTimes = append(setupTimes, d.Seconds())
		if i < setups-1 {
			r.teardown()
		}
	}
	res, err := r.measure(in)
	in.close()
	if err != nil {
		return err
	}
	res.setupTimes = setupTimes
	return r.report(res)
}

// setup launches the server on a fresh data directory, starts every device
// and preloads the workspaces, returning how long that took. The server
// creates one workspace per launch, so extra workspaces take one short
// launch each before the one that stays up.
func (r *runner) setup(i int, in *inputs) (time.Duration, error) {
	dataDir := filepath.Join(r.cfg.work, fmt.Sprintf("data-%d", i))
	if err := os.RemoveAll(dataDir); err != nil {
		return 0, err
	}
	flushDirty()
	start := time.Now()
	srv, err := newServer(r.cfg.server, dataDir, instances, r.cfg.traced)
	if err != nil {
		return 0, err
	}
	r.srv = srv
	for k := len(r.w.spaces) - 1; k >= 1; k-- {
		if err := srv.start(r.w.spaces[k]); err != nil {
			return 0, err
		}
		if err := srv.stop(); err != nil {
			return 0, err
		}
	}
	if err := srv.start(r.w.spaces[0]); err != nil {
		return 0, err
	}
	f, err := newFleet(srv, r.rec)
	if err != nil {
		return 0, err
	}
	r.fleet = f
	r.writers = make(map[string]*device)
	r.readers = make(map[string][]*device)
	for _, ws := range r.w.spaces {
		wd, err := f.addDevice("w-"+ws, ws, false)
		if err != nil {
			return 0, err
		}
		r.writers[ws] = wd
		for k := 0; k < r.w.readers; k++ {
			rd, err := f.addDevice(fmt.Sprintf("r%d-%s", k, ws), ws, true)
			if err != nil {
				return 0, err
			}
			r.readers[ws] = append(r.readers[ws], rd)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, len(r.w.spaces))
	for k, ws := range r.w.spaces {
		ops := in.preload[ws]
		for _, o := range ops {
			o.writer = r.writers[ws]
		}
		wg.Add(1)
		go func(k int, ws string) {
			defer wg.Done()
			errs[k] = f.preload(r.writers[ws], ops, 100, time.Minute)
		}(k, ws)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// teardown stops the devices and the server and removes the data.
func (r *runner) teardown() {
	if r.fleet != nil {
		r.fleet.close()
		r.fleet = nil
	}
	if r.srv != nil {
		if err := r.srv.stop(); err != nil {
			r.srv.kill()
		}
		_ = os.RemoveAll(r.srv.dataDir)
		_ = os.Remove(r.srv.logPath)
		r.srv = nil
	}
}

// resyncLoop has every reader of ws call Resync on a fixed cadence until
// stop closes; the returned channel closes once they have all returned.
func (r *runner) resyncLoop(ws string, every time.Duration, stop <-chan struct{}) <-chan struct{} {
	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, d := range r.readers[ws] {
		wg.Add(1)
		go func(d *device) {
			defer wg.Done()
			t := time.NewTicker(every)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					r.resync(d)
				}
			}
		}(d)
	}
	go func() { wg.Wait(); close(done) }()
	return done
}

func (r *runner) resync(d *device) {
	start := time.Now()
	err := d.c.Resync()
	if r.rec.on() {
		r.rec.add(span{Name: "client.resync", Start: r.rec.since(start), End: r.rec.since(time.Now()), Err: err != nil})
	}
	if err != nil {
		r.resyncErrs.Add(1)
	}
}

// sample is the state of every counter the metrics are deltas of.
type sample struct {
	at            time.Time
	serverCPU     time.Duration
	selfCPU       time.Duration
	mqUp, mqDown  uint64
	storeBytes    uint64
	chunkBytes    int64
	cacheHits     uint64
	cacheMisses   uint64
	dedupSkipped  uint64
	clientRetries uint64
	redelivered   uint64
	server        map[string]float64
}

func (r *runner) sample() (sample, error) {
	s := sample{at: time.Now()}
	var err error
	if s.serverCPU, err = cpuTime(strconv.Itoa(r.srv.pid())); err != nil {
		return s, err
	}
	if s.selfCPU, err = cpuTime("self"); err != nil {
		return s, err
	}
	s.mqUp, s.mqDown = r.fleet.mqBytes()
	s.storeBytes = r.fleet.storeBytes()
	s.chunkBytes = dirBytes(filepath.Join(r.srv.dataDir, "chunks"))
	for _, d := range r.fleet.devices {
		reg := d.c.Registry()
		s.cacheHits += reg.CounterValue("client_chunk_cache_hits_total", "device", d.name)
		s.cacheMisses += reg.CounterValue("client_chunk_cache_misses_total", "device", d.name)
		s.dedupSkipped += reg.CounterValue("objstore_dedup_skipped_total", "device", d.name)
		s.clientRetries += d.broker.Registry().CounterValue("omq_retry_attempts_total", "oid", core.ServiceOID)
	}
	if st, err := r.fleet.conns[0].QueueStats(core.ServiceOID); err == nil {
		s.redelivered = st.Redelivered
	}
	if r.cfg.traced {
		if s.server, err = r.srv.scrape(); err != nil {
			return s, err
		}
	}
	return s, nil
}

// result is everything a run measured.
type result struct {
	setupTimes    []float64
	out           outcome
	before, after sample
	phaseStart    time.Time
	queueMax      int
	serverRSS     float64 // median VmRSS over the phase
	serverPeakRSS int64
	capacity      float64
	convergence   []string
	restart       []string
	spans         []span
	resyncErrs    int64
	spansFile     string
}

// measure runs the workload's measured phase, drains it, and runs the
// convergence, capacity and restart checks.
func (r *runner) measure(in *inputs) (*result, error) {
	res := &result{}
	flushDirty()
	// Warm up at the phase's own load so connections, caches and heaps are
	// in their steady state before anything is counted.
	r.w.run(r, in, time.Now().Add(50*time.Millisecond), warmup, false)
	var err error
	if res.before, err = r.sample(); err != nil {
		return nil, err
	}
	stopQ := make(chan struct{})
	sampled := r.fleet.samplePhase(stopQ)
	if r.rec != nil {
		r.rec.enabled.Store(true)
	}
	res.phaseStart = time.Now().Add(50 * time.Millisecond)
	r.w.run(r, in, res.phaseStart, time.Duration(r.cfg.seconds)*time.Second, true)
	r.fleet.tr.drain(time.Now().Add(30 * time.Second))
	close(stopQ)
	g := <-sampled
	res.queueMax = g.queueMax
	res.serverRSS = metrics.Percentile(g.rss, 0.5)
	if res.after, err = r.sample(); err != nil {
		return nil, err
	}
	// Readers resync once more at the end of every workload, so resync time
	// is measured on each.
	for _, ws := range r.w.spaces {
		for _, d := range r.readers[ws] {
			r.resync(d)
		}
	}
	if r.rec != nil {
		r.rec.enabled.Store(false)
		res.spans = r.rec.snapshot()
	}
	if hwm, err := memStat(r.srv.pid(), "VmHWM"); err == nil {
		res.serverPeakRSS = hwm
	}
	if r.cfg.traced && r.w.capacity != nil {
		res.capacity = r.w.capacity(r, in)
	}
	res.convergence = r.fleet.converged()
	res.out = r.fleet.tr.outcome()
	res.resyncErrs = r.resyncErrs.Load()
	res.restart = r.restartCheck()
	if r.rec != nil {
		res.spansFile = filepath.Join(r.cfg.spans, fmt.Sprintf("%s-%d.jsonl", r.cfg.workload, r.cfg.seed))
		if err := r.rec.writeSpans(res.spansFile); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// restartCheck kill -9s the server, restarts it on the same data directory
// and has a fresh device per workspace (cold start, since=0) read back the
// last acknowledged version of every path. It returns the mismatches.
func (r *runner) restartCheck() []string {
	want := r.fleet.tr.finalState()
	tr := r.fleet.tr
	r.fleet.close()
	r.fleet = nil
	r.srv.kill()
	if err := r.srv.start(r.w.spaces[0]); err != nil {
		return []string{"restart: " + err.Error()}
	}
	f, err := newFleet(r.srv, nil)
	if err != nil {
		return []string{"restart: " + err.Error()}
	}
	defer f.close()
	var bad []string
	for _, ws := range r.w.spaces {
		// Start is the cold start: it pulls the full state and downloads
		// every live file.
		d, err := f.addDevice("fresh-"+ws, ws, false)
		if err != nil {
			bad = append(bad, fmt.Sprintf("restart: %s: %v", ws, err))
			continue
		}
		live := 0
		for path, o := range want[ws] {
			if !o.deleted() {
				live++
			}
			if msg := tr.checkCopy(d, path, o.version); msg != "" {
				bad = append(bad, "restart: "+msg)
			}
		}
		if n := len(d.c.Paths()); n != live {
			bad = append(bad, fmt.Sprintf("restart: %s holds %d live paths, %d acknowledged", d.name, n, live))
		}
	}
	return bad
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *runner) report(res *result) error {
	out := res.out
	failed := out.failed + len(res.restart) + len(res.convergence) + int(res.resyncErrs)
	failures := append(append(append([]string(nil), out.failures...), res.convergence...), res.restart...)
	attempted := out.attempted
	if attempted < 1 {
		attempted = 1
	}
	dur := res.after.at.Sub(res.phaseStart)
	ops := float64(attempted)
	lateP99 := metrics.Percentile(out.late, 0.99)
	valid := lateP99 <= maxLateMs

	e2e := map[string]metric{}
	put := func(name string, v float64, unit string) { e2e[name] = metric{v, unit} }
	commit, sync := summarize(out.commit), summarize(out.sync)
	put("setup_s", metrics.Percentile(res.setupTimes, 0.5), "s")
	put("commit_p50_ms", commit.P50, "ms")
	put("commit_tail_ms", commit.Tail, "ms")
	put("sync_p50_ms", sync.P50, "ms")
	put("sync_tail_ms", sync.Tail, "ms")
	elapsed := dur.Seconds()
	if out.lastDelivery.After(res.phaseStart) {
		elapsed = out.lastDelivery.Sub(res.phaseStart).Seconds()
	}
	put("goodput_mb_s", float64(out.deliveredBytes)/1e6/elapsed, "MB/s")
	mqBytes := float64(res.after.mqUp + res.after.mqDown - res.before.mqUp - res.before.mqDown)
	storeBytes := float64(res.after.storeBytes - res.before.storeBytes)
	userBytes := float64(out.userBytes)
	if userBytes < 1 {
		userBytes = 1
	}
	put("ctl_bytes_per_op", mqBytes/ops, "B/op")
	put("traffic_bytes_per_user_byte", (mqBytes+storeBytes)/userBytes, "B/B")
	put("stored_bytes_per_user_byte", float64(res.after.chunkBytes-res.before.chunkBytes)/userBytes, "B/B")
	put("server_cpu_ms_per_op", ms(res.after.serverCPU-res.before.serverCPU)/ops, "ms/op")
	put("client_cpu_ms_per_op", ms(res.after.selfCPU-res.before.selfCPU)/ops, "ms/op")
	put("server_rss_mb", res.serverRSS/1e6, "MB")

	layers := r.layerMetrics(res, ops)
	layers["gen.late_p99_ms"] = metric{lateP99, "ms"}
	layers["failed_frac"] = metric{float64(failed) / ops, "ratio"}

	if len(failures) > 20 {
		failures = append(failures[:20], fmt.Sprintf("... %d more", len(failures)-20))
	}
	record := map[string]any{
		"workload":           r.cfg.workload,
		"seed":               r.cfg.seed,
		"seconds":            r.cfg.seconds,
		"trace":              r.cfg.traced,
		"source_tree":        r.cfg.tree,
		"go_version":         runtime.Version(),
		"gomaxprocs":         runtime.GOMAXPROCS(0),
		"nproc":              runtime.NumCPU(),
		"instances":          instances,
		"transport":          "loopback: TCP broker and HTTP storage gateway on 127.0.0.1",
		"flush_policy":       "metadata WAL fsync per commit group; chunk puts not fsynced",
		"codec":              codec.Default().Name(),
		"ops_attempted":      out.attempted,
		"ops_failed":         failed,
		"commit_latency":     commit,
		"sync_latency":       sync,
		"setup_runs_s":       res.setupTimes,
		"valid":              valid,
		"late_p99_bound_ms":  maxLateMs,
		"restart_check":      len(res.restart) == 0,
		"converged":          len(res.convergence) == 0,
		"failures":           failures,
		"end_to_end":         e2e,
		"per_layer":          layers,
		"spans_file":         res.spansFile,
		"capacity_cps":       res.capacity,
		"server_peak_rss_mb": float64(res.serverPeakRSS) / 1e6,
	}
	line, err := json.Marshal(record)
	if err != nil {
		return err
	}
	fmt.Println(string(line))

	metrics := e2e
	if r.cfg.traced {
		metrics = layers
	}
	final, err := json.Marshal(map[string]any{
		"correct":   failed == 0 && valid,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(final))
	return nil
}

// layerMetrics aggregates the traced spans of the measured phase into
// per-op layer budgets, and adds the counters read from the devices and
// the server's /metrics.
func (r *runner) layerMetrics(res *result, ops float64) map[string]metric {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	type agg struct {
		n, count, bytes, hits int64
		busy                  time.Duration
		errs                  int64
	}
	by := map[string]*agg{}
	roots := map[string]span{}
	children := map[string][]span{}
	var resync []float64
	for _, s := range res.spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.n++
		a.count += s.Count
		a.bytes += s.Bytes
		a.hits += s.Hits
		a.busy += s.dur()
		if s.Err {
			a.errs++
		}
		switch {
		case s.Name == "client.op":
			roots[s.Trace] = s
		case s.Name == "client.resync":
			resync = append(resync, ms(s.dur()))
		case s.Parent == "client.op":
			children[s.Trace] = append(children[s.Trace], s)
		}
	}
	get := func(name string) *agg {
		if a := by[name]; a != nil {
			return a
		}
		return &agg{}
	}
	perOp := func(d time.Duration) float64 { return ms(d) / ops }
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	var self time.Duration
	for id, root := range roots {
		self += root.dur() - covered(root, children[id])
	}
	put("client.put_ms", perOp(get("client.op").busy), "ms/op")
	put("client.self_ms", perOp(self), "ms/op")
	put("client.resync_ms", metrics.Percentile(resync, 0.5), "ms")
	b, a := res.before, res.after
	put("client.cache_hit_ratio", ratio(int64(a.cacheHits-b.cacheHits), int64(a.cacheHits-b.cacheHits+a.cacheMisses-b.cacheMisses)), "ratio")
	put("client.dedup_skipped", float64(a.dedupSkipped-b.dedupSkipped), "count")

	split, put_, get_, probe := get("chunker.split"), get("objstore.put"), get("objstore.get"), get("objstore.probe")
	put("chunker.split_ms", perOp(split.busy), "ms/op")
	put("chunker.split_calls", float64(split.n), "count")
	put("chunker.fresh_ratio", ratio(put_.count, split.count), "ratio")
	put("objstore.put_ms", perOp(put_.busy), "ms/op")
	put("objstore.put_bytes", float64(put_.bytes)/ops, "B/op")
	put("objstore.get_ms", perOp(get_.busy), "ms/op")
	put("objstore.get_bytes", float64(get_.bytes)/ops, "B/op")
	put("objstore.probe_ms", perOp(probe.busy), "ms/op")
	put("objstore.probe_hit_ratio", ratio(probe.hits, probe.count), "ratio")
	put("objstore.errors", float64(put_.errs+get_.errs+probe.errs), "count")

	enc, dec := get("codec.encode"), get("codec.decode")
	put("codec.encode_ms", perOp(enc.busy), "ms/op")
	put("codec.encode_bytes", float64(enc.bytes)/ops, "B/op")
	put("codec.decode_ms", perOp(dec.busy), "ms/op")

	pub := get("mq.publish")
	put("mq.publish_ms", perOp(pub.busy), "ms/op")
	put("mq.bytes_up", float64(a.mqUp-b.mqUp)/ops, "B/op")
	put("mq.bytes_down", float64(a.mqDown-b.mqDown)/ops, "B/op")
	put("mq.queue_depth_max", float64(res.queueMax), "count")
	put("mq.redelivered", float64(a.redelivered-b.redelivered), "count")

	d := func(key string) float64 { return a.server[key] - b.server[key] }
	sum := func(name string) float64 { return sumSeries(a.server, name) - sumSeries(b.server, name) }
	handleKey := obs.SeriesKey("omq_handle_seconds_sum", "oid", core.ServiceOID)
	countKey := obs.SeriesKey("omq_handle_seconds_count", "oid", core.ServiceOID)
	handled := d(countKey)
	if handled > 0 {
		put("omq.handle_ms", d(handleKey)*1000/handled, "ms")
	} else {
		put("omq.handle_ms", 0, "ms")
	}
	put("omq.retries", sum("omq_retry_attempts_total")+float64(a.clientRetries-b.clientRetries), "count")
	put("core.notify_published", d("core_notify_published_total"), "count")
	put("core.notify_errors", d("core_notify_errors_total"), "count")
	flushes := d("metastore_wal_flushes_total")
	put("metastore.wal_flushes", flushes, "count")
	if flushes > 0 {
		put("metastore.wal_records_per_flush", d("metastore_wal_records_total")/flushes, "ratio")
	} else {
		put("metastore.wal_records_per_flush", 0, "ratio")
	}
	put("metastore.snapshot_installs", d("metastore_snapshot_installs_total"), "count")
	put("metastore.shard_contention", sum("metastore_shard_contention_total"), "count")
	put("metastore.changes_tail", d(obs.SeriesKey("metastore_changes_since_total", "result", "tail")), "count")
	put("metastore.changes_full", d(obs.SeriesKey("metastore_changes_since_total", "result", "full")), "count")
	return m
}

// covered is how much of root's interval its children's spans cover;
// overlapping children (parallel transfer workers) count once.
func covered(root span, children []span) time.Duration {
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	var total, end int64
	end = root.Start
	for _, c := range children {
		s, e := max(c.Start, end), min(c.End, root.End)
		if e > s {
			total += e - s
			end = e
		}
	}
	return time.Duration(total)
}

// sumSeries adds every series of a metric, whatever its labels.
func sumSeries(m map[string]float64, name string) float64 {
	var v float64
	for k, x := range m {
		if k == name || (len(k) > len(name) && k[:len(name)] == name && k[len(name)] == '{') {
			v += x
		}
	}
	return v
}
