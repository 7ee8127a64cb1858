package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"stacksync/internal/metrics"
	"stacksync/internal/trace"
)

// SLA is the commit latency limit of the capacity search: the paper's
// D = 450 ms (provision.DefaultSLA).
const SLA = 450 * time.Millisecond

// workload describes one traffic mix. prepare builds the preload from the
// seed; run drives the measured phase against the fleet's writers.
type workload struct {
	spaces  []string // workspaces; the first is the one the server reopens
	readers int      // reader devices per workspace
	prepare func(seed int64) *inputs
	// run drives ops due in [start, start+d); measured is false for the
	// warm-up, whose ops are checked but not counted.
	run func(r *runner, in *inputs, start time.Time, d time.Duration, measured bool)
	// capacity, when set, searches the highest open-loop rate meeting SLA.
	capacity func(r *runner, in *inputs) float64
}

// inputs is a workload's generated state: the preload per workspace and the
// generators the measured phase continues from.
type inputs struct {
	preload map[string][]*op
	storm   []*traceGen // commit-storm: one trace stream per workspace
	edits   *editGen    // shared-edits
	bulk    *bulkGen    // bulk-files, started by the first run
	seed    int64
}

func (in *inputs) close() {
	if in.bulk != nil {
		in.bulk.close()
	}
}

var (
	stormSpaces = []string{"ws-0", "ws-1", "ws-2", "ws-3"}
	bulkSpace   = "bulk"
	editsSpace  = "shared"
)

var workloads = map[string]*workload{
	"commit-storm": {
		spaces:   stormSpaces,
		readers:  1,
		prepare:  prepareStorm,
		run:      runStorm,
		capacity: stormCapacity,
	},
	"bulk-files": {
		spaces:  []string{bulkSpace},
		readers: 1,
		prepare: func(seed int64) *inputs { return &inputs{seed: seed} },
		run:     runBulk,
	},
	"shared-edits": {
		spaces:  []string{editsSpace},
		readers: 3,
		prepare: prepareEdits,
		run:     runEdits,
	},
}

// stratifiedSizes draws n log-uniform sizes in [lo, hi), one from each of
// n equally likely strata, in ascending order. Every seed then gets the same
// size mix; the seed still picks each size within its stratum, the content
// and the order.
func stratifiedSizes(r *rand.Rand, n int, lo, hi int64) []int64 {
	l, h := math.Log(float64(lo)), math.Log(float64(hi))
	out := make([]int64, n)
	for i := range out {
		u := (float64(i) + r.Float64()) / float64(n)
		out[i] = int64(math.Exp(l + u*(h-l)))
	}
	return out
}

// Workload sizing. The rates sit well below the knees measured on a 2-vCPU
// host (see README.md), so the fixed-rate phases measure an unsaturated
// system and the generator keeps to its schedule.
const (
	stormPreload   = 500      // items per commit-storm workspace
	stormMaxSize   = 16 << 10 // commit-storm ADD size cap
	stormRate      = 100.0    // commit-storm ops/s over all workspaces
	editsRate      = 5.0      // shared-edits ops/s
	editsBlock     = 25       // shared-edits mix is exact per block of edits
	editsZipf      = 1.2      // shared-edits popularity exponent
	editsStride    = 7        // coprime with editsBlock
	editsMinChange = 50       // the trace model's UPDATE change sizes
	editsMaxChange = 400
	editsFiles     = 32 // files preloaded into shared-edits
	editsResync    = time.Second
	bulkLive       = 4  // bulk-files keeps this many files live
	bulkBlock      = 16 // bulk-files sizes are stratified per block of files
	bulkMinSize    = 1 << 20
	bulkMaxSize    = 8 << 20
	editsMinSize   = 256 << 10
	editsMaxSize   = 2 << 20
	capacityStep   = 2 * time.Second
	capacityGrow   = 1.25
	capacitySteps  = 10
)

// traceGen turns the trace model's op stream for one workspace into ops,
// materialising content (ADDs capped at maxSize) and chaining versions per
// path. When one generated trace runs out, the next is generated under a
// fresh path prefix. bulk-files and shared-edits use only its chaining and
// Materializer.
type traceGen struct {
	ws      string
	seed    int64
	round   int
	ops     []trace.Op
	i, n    int
	m       *trace.Materializer
	last    map[string]*op
	maxSize int64
}

func newTraceGen(ws string, seed int64, maxSize int64) *traceGen {
	return &traceGen{ws: ws, seed: seed, m: trace.NewMaterializer(seed), last: make(map[string]*op), maxSize: maxSize}
}

func (g *traceGen) next() *op {
	for g.i >= len(g.ops) {
		g.round++
		cfg := trace.DefaultGenConfig()
		cfg.Seed = g.seed*1009 + int64(g.round)
		g.ops = trace.Generate(cfg).Ops
		for j := range g.ops {
			g.ops[j].Path = fmt.Sprintf("t%d/%s", g.round, g.ops[j].Path)
		}
		g.i = 0
	}
	top := g.ops[g.i]
	g.i++
	if top.Action == trace.ADD && top.Size > g.maxSize {
		top.Size = g.maxSize
	}
	content, err := g.m.Apply(top)
	if err != nil {
		panic(err) // the trace model only touches files it created
	}
	o := g.chain(top.Path, top.Action, content)
	switch top.Action {
	case trace.ADD:
		o.user = int64(len(content))
	case trace.UPDATE:
		o.user = top.ChangeBytes
	}
	return o
}

// chain makes the next op on path, versioned after the previous one.
func (g *traceGen) chain(path string, a trace.Action, content []byte) *op {
	g.n++
	o := &op{
		id: fmt.Sprintf("%s#%d", g.ws, g.n), ws: g.ws, action: a, path: path,
		version: 1, content: content, size: int64(len(content)),
		timed: true, measure: true, prev: g.last[path],
	}
	if o.prev != nil {
		o.version = o.prev.version + 1
	}
	g.last[path] = o
	return o
}

// ---- commit-storm ----

func prepareStorm(seed int64) *inputs {
	in := &inputs{seed: seed, preload: make(map[string][]*op)}
	for i, ws := range stormSpaces {
		g := newTraceGen(ws, seed*16+int64(i), stormMaxSize)
		r := rand.New(rand.NewSource(seed*16 + int64(i)))
		var pre []*op
		for k := 0; k < stormPreload; k++ {
			path := fmt.Sprintf("preload/%04d.dat", k)
			content, err := g.m.Apply(trace.Op{Action: trace.ADD, Path: path, Size: 256 + r.Int63n(768)})
			if err != nil {
				panic(err)
			}
			o := g.chain(path, trace.ADD, content)
			o.timed, o.measure = false, false
			pre = append(pre, o)
		}
		in.preload[ws] = pre
		in.storm = append(in.storm, g)
	}
	return in
}

// stormOps generates n ops round-robin across the workspaces, due at rate.
func (r *runner) stormOps(in *inputs, n int, rate float64, measured bool) <-chan *op {
	return produce(n, rate, func(k int) *op {
		g := in.storm[k%len(in.storm)]
		o := g.next()
		o.writer = r.writers[g.ws]
		o.timed, o.measure = measured, measured
		return o
	})
}

func runStorm(r *runner, in *inputs, start time.Time, d time.Duration, measured bool) {
	r.fleet.openLoop(r.stormOps(in, int(stormRate*d.Seconds()), stormRate, measured), start)
}

// stormCapacity raises the offered rate by capacityGrow per step from the
// fixed rate until a step's commit p99 (unacknowledged ops counting as
// infinitely late) exceeds SLA, and returns the last rate that met it.
func stormCapacity(r *runner, in *inputs) float64 {
	best := 0.0
	rate := stormRate
	for step := 0; step < capacitySteps; step++ {
		start := time.Now().Add(50 * time.Millisecond)
		ops := r.fleet.openLoop(r.stormOps(in, int(rate*capacityStep.Seconds()), rate, false), start)
		check := start.Add(capacityStep + SLA)
		time.Sleep(time.Until(check))
		lat := make([]float64, 0, len(ops))
		r.fleet.tr.mu.Lock()
		for _, o := range ops {
			if o.committed.IsZero() || o.failure != "" {
				lat = append(lat, math.Inf(1))
			} else {
				lat = append(lat, ms(o.committed.Sub(o.due)))
			}
		}
		r.fleet.tr.mu.Unlock()
		ok := metrics.Percentile(lat, 0.99) <= ms(SLA)
		r.fleet.tr.drain(time.Now().Add(20 * time.Second))
		if !ok {
			break
		}
		best = rate
		rate *= capacityGrow
	}
	return best
}

// ---- bulk-files ----

// bulkGen generates bulk-files' files ahead of the closed loop, so
// generation overlaps the sync. It runs for the whole run, so the file
// sequence depends on the seed alone.
type bulkGen struct {
	g     *traceGen
	files chan bulkFile
	stop  chan struct{}
	done  chan struct{}
	live  []*op
}

type bulkFile struct {
	path    string
	content []byte
}

func newBulkGen(seed int64) *bulkGen {
	b := &bulkGen{
		g:     newTraceGen(bulkSpace, seed, 0),
		files: make(chan bulkFile, 2), // two files ahead: one being synced, one next
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	rng := rand.New(rand.NewSource(seed))
	m := b.g.m // the producer is its only user
	go func() {
		defer close(b.done)
		var sizes []int64
		for k := 0; ; k++ {
			if len(sizes) == 0 {
				sizes = stratifiedSizes(rng, bulkBlock, bulkMinSize, bulkMaxSize)
				rng.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
			}
			path := fmt.Sprintf("bulk/file%05d.bin", k)
			content, err := m.Apply(trace.Op{Action: trace.ADD, Path: path, Size: sizes[0]})
			sizes = sizes[1:]
			if err == nil {
				_, err = m.Apply(trace.Op{Action: trace.REMOVE, Path: path})
			}
			if err != nil {
				panic(err)
			}
			select {
			case b.files <- bulkFile{path, content}:
			case <-b.stop:
				return
			}
		}
	}()
	return b
}

func (b *bulkGen) close() {
	close(b.stop)
	<-b.done
}

// runBulk saves one large file after another: each ADD is due when the
// previous one has reached the reader. Files older than the last bulkLive
// are removed (an untimed op) so memory stays bounded.
func runBulk(r *runner, in *inputs, start time.Time, d time.Duration, measured bool) {
	if in.bulk == nil {
		in.bulk = newBulkGen(in.seed)
	}
	b := in.bulk
	settle := func(o *op) bool {
		r.fleet.tr.register(o) // hashes the content, so before the op is due
		o.due = time.Now()
		r.fleet.issue(o)
		select {
		case <-o.doneCh:
			return true
		case <-time.After(30 * time.Second):
			return false
		}
	}
	time.Sleep(time.Until(start))
	for time.Since(start) < d {
		next := <-b.files
		o := b.g.chain(next.path, trace.ADD, next.content)
		o.user = o.size
		o.writer = r.writers[bulkSpace]
		o.timed, o.measure = measured, measured
		if !settle(o) {
			return
		}
		b.live = append(b.live, o)
		if len(b.live) > bulkLive {
			old := b.live[0]
			b.live = b.live[1:]
			rm := b.g.chain(old.path, trace.REMOVE, nil)
			rm.timed, rm.measure = false, measured
			rm.writer = o.writer
			if !settle(rm) {
				return
			}
		}
	}
}

// ---- shared-edits ----

// homesMix is the trace model's "Homes" change-pattern distribution
// (§5.2.1, internal/trace patternProbs).
var homesMix = []struct {
	p    trace.ChangePattern
	prob float64
}{
	{trace.PatternB, 0.38}, {trace.PatternE, 0.08}, {trace.PatternM, 0.03},
	{trace.PatternBE, 0.26}, {trace.PatternBM, 0.13}, {trace.PatternEM, 0.12},
}

// editGen aims UPDATEs at a Zipf-hot subset of the preloaded files. Each
// block of editsBlock edits holds exactly the Zipf share of edits per
// popularity rank and the Homes share per change pattern (largest
// remainder), paired the same way in every block, and change sizes
// stratified over the trace model's 50–400 bytes; the seed orders each
// block and picks the sizes within their strata and the contents. Every
// seed so offers the same mix, which keeps the run-to-run spread down.
type editGen struct {
	*traceGen
	r     *rand.Rand
	files []string // by popularity rank
	queue []trace.Op
}

func prepareEdits(seed int64) *inputs {
	ws := editsSpace
	g := newTraceGen(ws, seed, 0)
	r := rand.New(rand.NewSource(seed))
	sizes := stratifiedSizes(r, editsFiles, editsMinSize, editsMaxSize)
	// Popularity rank k gets the size stratum sizeOfRank[k]: a fixed
	// interleaving, so the hot files are equally large under every seed.
	sizeOfRank := rand.New(rand.NewSource(1)).Perm(editsFiles)
	var pre []*op
	var files []string
	for k := 0; k < editsFiles; k++ {
		path := fmt.Sprintf("shared/doc%02d.dat", k)
		content, err := g.m.Apply(trace.Op{Action: trace.ADD, Path: path, Size: sizes[sizeOfRank[k]]})
		if err != nil {
			panic(err)
		}
		o := g.chain(path, trace.ADD, content)
		o.timed, o.measure = false, false
		pre = append(pre, o)
		files = append(files, path)
	}
	return &inputs{
		seed:    seed,
		preload: map[string][]*op{ws: pre},
		edits:   &editGen{traceGen: g, r: r, files: files},
	}
}

// quotas splits n slots over weights in proportion, by largest remainder.
func quotas(weights []float64, n int) []int {
	var sum float64
	for _, w := range weights {
		sum += w
	}
	out := make([]int, len(weights))
	rem := make([]int, len(weights))
	left := n
	for i, w := range weights {
		out[i] = int(w / sum * float64(n))
		left -= out[i]
		rem[i] = i
	}
	frac := func(i int) float64 { return weights[i]/sum*float64(n) - float64(out[i]) }
	sort.SliceStable(rem, func(a, b int) bool { return frac(rem[a]) > frac(rem[b]) })
	for k := 0; k < left; k++ {
		out[rem[k]]++
	}
	return out
}

// refill lays out the next block of edits.
func (e *editGen) refill() {
	zipf := make([]float64, len(e.files))
	for k := range zipf {
		zipf[k] = math.Pow(1+float64(k), -editsZipf)
	}
	var ranks []int
	for k, n := range quotas(zipf, editsBlock) {
		for ; n > 0; n-- {
			ranks = append(ranks, k)
		}
	}
	mix := make([]float64, len(homesMix))
	for i, h := range homesMix {
		mix[i] = h.prob
	}
	var patterns []trace.ChangePattern
	for i, n := range quotas(mix, editsBlock) {
		for ; n > 0; n-- {
			patterns = append(patterns, homesMix[i].p)
		}
	}
	// Deal the patterns over the rank-ordered slots with a fixed stride, so
	// each rank gets the same patterns in every block, then let the seed
	// order the block.
	pairs := make([][2]int, len(ranks))
	for i := range ranks {
		pairs[i] = [2]int{ranks[i], i * editsStride % len(patterns)}
	}
	e.r.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	// Change sizes: the trace model's uniform 50–400 bytes, one draw per
	// stratum of the block.
	changes := make([]int64, len(pairs))
	for i := range changes {
		changes[i] = editsMinChange + int64((float64(i)+e.r.Float64())/float64(len(changes))*(editsMaxChange-editsMinChange))
	}
	e.r.Shuffle(len(changes), func(i, j int) { changes[i], changes[j] = changes[j], changes[i] })
	for i, pr := range pairs {
		e.queue = append(e.queue, trace.Op{Action: trace.UPDATE, Path: e.files[pr[0]], Pattern: patterns[pr[1]], ChangeBytes: changes[i]})
	}
}

func (e *editGen) next() *op {
	if len(e.queue) == 0 {
		e.refill()
	}
	top := e.queue[0]
	e.queue = e.queue[1:]
	content, err := e.m.Apply(top)
	if err != nil {
		panic(err)
	}
	o := e.chain(top.Path, trace.UPDATE, content)
	o.user = top.ChangeBytes
	return o
}

func runEdits(r *runner, in *inputs, start time.Time, d time.Duration, measured bool) {
	ops := produce(int(editsRate*d.Seconds()), editsRate, func(int) *op {
		o := in.edits.next()
		o.writer = r.writers[editsSpace]
		o.timed, o.measure = measured, measured
		return o
	})
	stop := make(chan struct{})
	resyncDone := r.resyncLoop(editsSpace, editsResync, stop)
	r.fleet.openLoop(ops, start)
	close(stop)
	<-resyncDone
}

// produce generates n ops, the k-th due k/rate seconds into the phase,
// running a few ops ahead of the dispatcher so generation stays off the
// schedule and large contents are not all held at once.
func produce(n int, rate float64, next func(k int) *op) <-chan *op {
	ch := make(chan *op, 8) // how far generation runs ahead
	go func() {
		defer close(ch)
		for k := 0; k < n; k++ {
			o := next(k)
			o.offset = time.Duration(float64(k) / rate * float64(time.Second))
			ch <- o
		}
	}()
	return ch
}
