package client

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"stacksync/internal/chunker"
	"stacksync/internal/objstore"
	"stacksync/internal/obs"
)

// Transfer pipeline defaults. The batch-first Store API only pays off when
// the client actually batches and overlaps requests; these bound how hard it
// does so.
const (
	defaultTransferWorkers = 4
	defaultTransferBatch   = 16
	defaultChunkCacheBytes = 16 << 20
)

// transferByteBuckets are histogram bounds for per-batch transfer sizes,
// 1 KB .. 16 MB (observations are bytes, not seconds).
var transferByteBuckets = []float64{
	1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20,
}

// transferMetrics backs the data-path series of one device.
type transferMetrics struct {
	batchPuts     *obs.Counter // objects shipped through PutMulti
	batchGets     *obs.Counter // objects requested through GetMulti
	batchProbes   *obs.Counter // objects probed through ExistsMulti
	dedupSkipped  *obs.Counter // uploads skipped because the server had the chunk
	cacheHits     *obs.Counter
	cacheMisses   *obs.Counter
	flightShared  *obs.Counter // uploads coalesced onto an in-flight leader
	uploadBytes   *obs.Histogram
	downloadBytes *obs.Histogram
}

// transferMetricNames lists the registered series so Close can unregister
// them symmetrically.
var transferMetricNames = []string{
	"objstore_batch_puts_total",
	"objstore_batch_gets_total",
	"objstore_batch_probes_total",
	"objstore_dedup_skipped_total",
	"client_chunk_cache_hits_total",
	"client_chunk_cache_misses_total",
	"client_singleflight_shared_total",
	"client_transfer_upload_bytes",
	"client_transfer_download_bytes",
}

func newTransferMetrics(reg *obs.Registry, deviceID string) *transferMetrics {
	return &transferMetrics{
		batchPuts:     reg.Counter("objstore_batch_puts_total", "device", deviceID),
		batchGets:     reg.Counter("objstore_batch_gets_total", "device", deviceID),
		batchProbes:   reg.Counter("objstore_batch_probes_total", "device", deviceID),
		dedupSkipped:  reg.Counter("objstore_dedup_skipped_total", "device", deviceID),
		cacheHits:     reg.Counter("client_chunk_cache_hits_total", "device", deviceID),
		cacheMisses:   reg.Counter("client_chunk_cache_misses_total", "device", deviceID),
		flightShared:  reg.Counter("client_singleflight_shared_total", "device", deviceID),
		uploadBytes:   reg.HistogramWith(transferByteBuckets, "client_transfer_upload_bytes", "device", deviceID),
		downloadBytes: reg.HistogramWith(transferByteBuckets, "client_transfer_download_bytes", "device", deviceID),
	}
}

// flightGroup coalesces concurrent uploads of the same fingerprint: the
// first claimant becomes the leader and actually ships the chunk; later
// claimants wait for the leader's outcome instead of re-sending the bytes.
type flightGroup struct {
	mu       sync.Mutex
	inflight map[string]*flightCall
}

type flightCall struct {
	done chan struct{}
	err  error
}

func newFlightGroup() *flightGroup {
	return &flightGroup{inflight: make(map[string]*flightCall)}
}

// claim returns (call, true) when the caller became the leader for fp, or
// the existing in-flight call and false when another goroutine leads. A
// leader must release its call exactly once.
func (g *flightGroup) claim(fp string) (*flightCall, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if call, ok := g.inflight[fp]; ok {
		return call, false
	}
	call := &flightCall{done: make(chan struct{})}
	g.inflight[fp] = call
	return call, true
}

// release publishes the leader's outcome and wakes the followers.
func (g *flightGroup) release(fp string, call *flightCall, err error) {
	g.mu.Lock()
	delete(g.inflight, fp)
	g.mu.Unlock()
	call.err = err
	close(call.done)
}

// chunkCache is a size-bounded LRU over compressed chunk bytes. Downloads
// consult it before the store; uploads and downloads both feed it. maxBytes
// <= 0 disables the cache entirely.
type chunkCache struct {
	mu       sync.Mutex
	maxBytes int64
	size     int64
	items    map[string]*list.Element
	order    *list.List // front = most recently used
}

type cacheEntry struct {
	fp   string
	data []byte
}

func newChunkCache(maxBytes int64) *chunkCache {
	return &chunkCache{
		maxBytes: maxBytes,
		items:    make(map[string]*list.Element),
		order:    list.New(),
	}
}

func (c *chunkCache) get(fp string) ([]byte, bool) {
	if c.maxBytes <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[fp]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).data, true
}

func (c *chunkCache) put(fp string, data []byte) {
	if c.maxBytes <= 0 || int64(len(data)) > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[fp]; ok {
		c.order.MoveToFront(el)
		entry := el.Value.(*cacheEntry)
		c.size += int64(len(data)) - int64(len(entry.data))
		entry.data = data
	} else {
		c.items[fp] = c.order.PushFront(&cacheEntry{fp: fp, data: data})
		c.size += int64(len(data))
	}
	for c.size > c.maxBytes {
		back := c.order.Back()
		if back == nil {
			break
		}
		entry := back.Value.(*cacheEntry)
		c.order.Remove(back)
		delete(c.items, entry.fp)
		c.size -= int64(len(entry.data))
	}
}

func (c *chunkCache) bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size
}

// runTransfer slices n items into TransferBatch-sized batches and drives
// them through a pool of TransferWorkers goroutines. It returns the first
// batch error; remaining batches still run (chunk puts are idempotent, so
// over-transfer is harmless and keeps the queue simple). A single batch
// runs inline on the calling goroutine — small transfers pay no pool
// scheduling at all.
func (c *Client) runTransfer(ctx context.Context, n int, batchFn func(lo, hi int) error) error {
	batchSize := c.cfg.TransferBatch
	numBatches := (n + batchSize - 1) / batchSize
	if numBatches <= 1 {
		if n == 0 {
			return nil
		}
		return batchFn(0, n)
	}
	workers := min(c.cfg.TransferWorkers, numBatches)

	type job struct{ lo, hi int }
	jobs := make(chan job)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if err := batchFn(j.lo, j.hi); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for lo := 0; lo < n; lo += batchSize {
		jobs <- job{lo, min(lo+batchSize, n)}
	}
	close(jobs)
	wg.Wait()
	return firstErr
}

// forEachParallel runs fn(0..n-1) on at most GOMAXPROCS goroutines — the
// bound for CPU-only chunk work (compression, decompression, hashing) — and
// returns the error of the lowest failing index. A single item runs inline.
func forEachParallel(n int, fn func(i int) error) error {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := range n {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// uploadChunks compresses the fresh chunks in parallel and pushes them
// through the pipelined upload path: per batch, a server-side existence
// probe skips chunks some other device already stored (workspace-scoped
// dedup, §4.1), the singleflight layer coalesces concurrent uploads of the
// same fingerprint, and the survivors ship in one PutMulti.
func (c *Client) uploadChunks(ctx context.Context, fresh []chunker.Chunk) error {
	if len(fresh) == 0 {
		return nil
	}
	objs := make([]objstore.Object, len(fresh))
	err := forEachParallel(len(fresh), func(i int) error {
		compressed, err := chunker.Compress(fresh[i].Data, c.cfg.Compression)
		if err != nil {
			return fmt.Errorf("client: compress chunk: %w", err)
		}
		objs[i] = objstore.Object{Key: fresh[i].Fingerprint, Data: compressed}
		return nil
	})
	if err != nil {
		return err
	}
	return c.runTransfer(ctx, len(objs), func(lo, hi int) error {
		return c.uploadBatch(ctx, objs[lo:hi])
	})
}

// probeMinBatch is the smallest batch worth the server-assisted dedup
// probe. A single-chunk probe costs one round trip — exactly what the put
// it might save costs — so tiny batches skip straight to the (idempotent)
// put and keep small-file commit latency at one storage round trip.
const probeMinBatch = 2

// uploadBatch moves one batch: probe, coalesce, put.
func (c *Client) uploadBatch(ctx context.Context, objs []objstore.Object) error {
	span := c.tracer.StartFromContext(ctx, "objstore.putBatch")
	defer span.End()

	// Server-assisted dedup: ask before shipping bytes. A failed probe
	// (store down, circuit open) degrades gracefully to "assume everything
	// is missing" — at worst we re-upload idempotent chunks.
	missing := objs
	if len(objs) >= probeMinBatch {
		keys := make([]string, len(objs))
		for i, o := range objs {
			keys[i] = o.Key
		}
		c.tm.batchProbes.Add(uint64(len(keys)))
		if present, err := c.store.ExistsMulti(ctx, c.container, keys); err == nil && len(present) == len(objs) {
			missing = make([]objstore.Object, 0, len(objs))
			for i, o := range objs {
				if present[i] {
					c.tm.dedupSkipped.Inc()
					c.cache.put(o.Key, o.Data)
					continue
				}
				missing = append(missing, o)
			}
		} else if canceledErr(err) {
			return err
		}
	}
	if len(missing) == 0 {
		return nil
	}

	// Singleflight per fingerprint: chunks another goroutine is already
	// uploading are waited on, not re-sent.
	var leaders []objstore.Object
	var claims []*flightCall
	var waits []*flightCall
	for _, o := range missing {
		call, lead := c.flights.claim(o.Key)
		if lead {
			leaders = append(leaders, o)
			claims = append(claims, call)
		} else {
			c.tm.flightShared.Inc()
			waits = append(waits, call)
		}
	}

	err := c.putLeaders(ctx, leaders)
	for i, call := range claims {
		c.flights.release(leaders[i].Key, call, err)
	}
	for _, w := range waits {
		select {
		case <-w.done:
			if w.err != nil && err == nil {
				err = w.err
			}
		case <-ctx.Done():
			if err == nil {
				err = ctx.Err()
			}
		}
	}
	return err
}

// putLeaders ships the chunks this goroutine leads. Transient failures
// (including an open circuit) defer the batch to the upload queue and count
// as success: metadata and data flows are independent (§4), so a flaky
// store must not block the commit.
func (c *Client) putLeaders(ctx context.Context, leaders []objstore.Object) error {
	if len(leaders) == 0 {
		return nil
	}
	var total int
	for _, o := range leaders {
		total += len(o.Data)
	}
	err := c.store.PutMulti(ctx, c.container, leaders)
	switch {
	case err == nil:
		c.tm.batchPuts.Add(uint64(len(leaders)))
		c.tm.uploadBytes.Observe(float64(total))
		for _, o := range leaders {
			c.cache.put(o.Key, o.Data)
		}
		return nil
	case permanentStoreErr(err) || canceledErr(err):
		return fmt.Errorf("client: upload chunk batch: %w", err)
	default:
		for _, o := range leaders {
			c.uploads.add(o.Key, o.Data)
		}
		return nil
	}
}

// fetchChunks fills compressed[i] for every index in idx (positions into
// fps), batching GetMulti calls through the worker pool. The cache and the
// deferred-upload queue were already consulted by the caller.
func (c *Client) fetchChunks(ctx context.Context, fps []string, compressed [][]byte, idx []int) error {
	return c.runTransfer(ctx, len(idx), func(lo, hi int) error {
		return c.downloadBatch(ctx, fps, compressed, idx[lo:hi])
	})
}

// downloadBatch resolves one batch of missing chunks. Chunks absent from
// the store fall back to the deferred-upload queue (read-your-writes under
// degradation); anything still unresolved fails the fetch.
func (c *Client) downloadBatch(ctx context.Context, fps []string, out [][]byte, idx []int) error {
	span := c.tracer.StartFromContext(ctx, "objstore.getBatch")
	defer span.End()

	keys := make([]string, len(idx))
	for i, j := range idx {
		keys[i] = fps[j]
	}
	c.tm.batchGets.Add(uint64(len(keys)))
	data, gerr := c.store.GetMulti(ctx, c.container, keys)
	if canceledErr(gerr) {
		return gerr
	}
	if gerr != nil && !errors.Is(gerr, objstore.ErrNotFound) {
		// Whole-batch failure (store down, circuit open): the queue is the
		// only local recourse, so treat every key as a miss.
		data = make([][]byte, len(keys))
	}
	if len(data) != len(keys) {
		data = make([][]byte, len(keys))
	}
	var total int
	for i, j := range idx {
		d := data[i]
		if d == nil {
			queued, ok := c.uploads.get(keys[i])
			if !ok {
				if gerr == nil {
					gerr = objstore.ErrNotFound
				}
				return fmt.Errorf("client: fetch chunk %s: %w", keys[i], gerr)
			}
			d = queued
		} else {
			total += len(d)
			c.cache.put(keys[i], d)
		}
		out[j] = d
	}
	c.tm.downloadBytes.Observe(float64(total))
	return nil
}
