package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"stacksync/internal/chunker"
	"stacksync/internal/codec"
	"stacksync/internal/mq"
	"stacksync/internal/objstore"
)

// The timing wrappers below sit on the public seams between the load
// process and each layer: the chunker, the object store, the RPC codec and
// the message queue. They add no spans inside the program; every span is
// recorded here, around a call into a layer, and kept in memory until the
// run ends.

// span is one timed call into a layer. Trace is the op id the call served
// ("" for background work no op can be tied to); Parent names the span that
// caused it ("client.op" for calls made inside a device operation).
type span struct {
	Name   string `json:"name"`
	Trace  string `json:"trace,omitempty"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
	Count  int64  `json:"count,omitempty"`
	Hits   int64  `json:"hits,omitempty"`
	Err    bool   `json:"err,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder collects spans while enabled. A nil recorder records nothing, so
// the wrappers cost one nil check when tracing is off.
type recorder struct {
	t0      time.Time
	enabled atomic.Bool

	mu    sync.Mutex
	spans []span
	// fpOp ties a chunk fingerprint to the op that split it, so a reader's
	// download, which runs outside any op scope, is charged to that op.
	fpOp map[string]string
}

func newRecorder() *recorder {
	r := &recorder{t0: time.Now(), fpOp: make(map[string]string)}
	r.enabled.Store(true)
	return r
}

func (r *recorder) on() bool { return r != nil && r.enabled.Load() }

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.t0)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) tieChunks(op string, chunks []chunker.Chunk) {
	r.mu.Lock()
	for _, c := range chunks {
		r.fpOp[c.Fingerprint] = op
	}
	r.mu.Unlock()
}

func (r *recorder) opOfChunk(fp string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fpOp[fp]
}

// snapshot returns the spans recorded so far, ordered by start.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	out := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// writeSpans writes every span as one JSON line.
func (r *recorder) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// opScope names the op a device is executing, so calls the device makes
// into its wrapped layers during that op become the op's children. The load
// process runs at most one op per device at a time.
type opScope struct {
	cur atomic.Pointer[string]
}

func (s *opScope) set(op string) { s.cur.Store(&op) }
func (s *opScope) clear()        { s.cur.Store(nil) }

func (s *opScope) op() string {
	if s == nil {
		return ""
	}
	if p := s.cur.Load(); p != nil {
		return *p
	}
	return ""
}

// seam is what every wrapper shares: where spans go and which op is active.
type seam struct {
	rec   *recorder
	scope *opScope
}

// timed runs fn and, when recording, stores a span for it; fill may add
// byte/count fields once fn has returned.
func (s seam) timed(name string, fn func() error, fill func(*span)) error {
	if !s.rec.on() {
		return fn()
	}
	start := time.Now()
	err := fn()
	end := time.Now()
	sp := span{Name: name, Start: s.rec.since(start), End: s.rec.since(end), Err: err != nil}
	if op := s.scope.op(); op != "" {
		sp.Trace, sp.Parent = op, "client.op"
	}
	if fill != nil {
		fill(&sp)
	}
	s.rec.add(sp)
	return err
}

// timedStore wraps an objstore.Store. Puts, gets and existence probes are
// timed; the remaining calls pass straight through.
type timedStore struct {
	seam
	inner objstore.Store
}

var _ objstore.Store = (*timedStore)(nil)

func (t *timedStore) EnsureContainer(ctx context.Context, container string) error {
	return t.inner.EnsureContainer(ctx, container)
}

func (t *timedStore) Put(ctx context.Context, container, key string, data []byte) error {
	return t.timed("objstore.put", func() error { return t.inner.Put(ctx, container, key, data) },
		func(s *span) { s.Bytes, s.Count = int64(len(data)), 1 })
}

func (t *timedStore) Get(ctx context.Context, container, key string) ([]byte, error) {
	var data []byte
	err := t.timed("objstore.get", func() error {
		var err error
		data, err = t.inner.Get(ctx, container, key)
		return err
	}, func(s *span) {
		s.Bytes, s.Count = int64(len(data)), 1
		t.chargeRead(s, []string{key})
	})
	return data, err
}

func (t *timedStore) Exists(ctx context.Context, container, key string) (bool, error) {
	var ok bool
	err := t.timed("objstore.probe", func() error {
		var err error
		ok, err = t.inner.Exists(ctx, container, key)
		return err
	}, func(s *span) {
		s.Count = 1
		if ok {
			s.Hits = 1
		}
	})
	return ok, err
}

func (t *timedStore) Delete(ctx context.Context, container, key string) error {
	return t.inner.Delete(ctx, container, key)
}

func (t *timedStore) List(ctx context.Context, container string) ([]string, error) {
	return t.inner.List(ctx, container)
}

func (t *timedStore) PutMulti(ctx context.Context, container string, objects []objstore.Object) error {
	return t.timed("objstore.put", func() error { return t.inner.PutMulti(ctx, container, objects) },
		func(s *span) {
			for _, o := range objects {
				s.Bytes += int64(len(o.Data))
			}
			s.Count = int64(len(objects))
		})
}

func (t *timedStore) GetMulti(ctx context.Context, container string, keys []string) ([][]byte, error) {
	var data [][]byte
	err := t.timed("objstore.get", func() error {
		var err error
		data, err = t.inner.GetMulti(ctx, container, keys)
		return err
	}, func(s *span) {
		for _, d := range data {
			s.Bytes += int64(len(d))
		}
		s.Count = int64(len(keys))
		t.chargeRead(s, keys)
	})
	return data, err
}

func (t *timedStore) ExistsMulti(ctx context.Context, container string, keys []string) ([]bool, error) {
	var found []bool
	err := t.timed("objstore.probe", func() error {
		var err error
		found, err = t.inner.ExistsMulti(ctx, container, keys)
		return err
	}, func(s *span) {
		s.Count = int64(len(keys))
		for _, ok := range found {
			if ok {
				s.Hits++
			}
		}
	})
	return found, err
}

// chargeRead ties a download made outside any op scope (a reader applying a
// notification) to the op whose chunks it fetched.
func (t *timedStore) chargeRead(s *span, keys []string) {
	if s.Trace != "" || len(keys) == 0 {
		return
	}
	if op := t.rec.opOfChunk(keys[0]); op != "" {
		s.Trace, s.Parent = op, "reader.apply"
	}
}

// timedCodec wraps the RPC argument codec. Name is the inner codec's, so
// per-message negotiation and the codec of replies are unchanged.
type timedCodec struct {
	seam
	inner codec.Codec
}

var _ codec.Codec = (*timedCodec)(nil)

func (t *timedCodec) Name() string { return t.inner.Name() }

func (t *timedCodec) MarshalAppend(dst []byte, v any) ([]byte, error) {
	var out []byte
	n := len(dst)
	err := t.timed("codec.encode", func() error {
		var err error
		out, err = t.inner.MarshalAppend(dst, v)
		return err
	}, func(s *span) { s.Bytes = int64(len(out) - n) })
	return out, err
}

func (t *timedCodec) Unmarshal(data []byte, v any) error {
	return t.timed("codec.decode", func() error { return t.inner.Unmarshal(data, v) },
		func(s *span) { s.Bytes = int64(len(data)) })
}

// timedChunker wraps a chunker and returns its chunks untouched.
type timedChunker struct {
	seam
	inner chunker.Chunker
}

var _ chunker.Chunker = (*timedChunker)(nil)

func (t *timedChunker) Name() string { return t.inner.Name() }

func (t *timedChunker) Split(r io.Reader) ([]chunker.Chunk, error) {
	var chunks []chunker.Chunk
	err := t.timed("chunker.split", func() error {
		var err error
		chunks, err = t.inner.Split(r)
		return err
	}, func(s *span) {
		s.Count = int64(len(chunks))
		for _, c := range chunks {
			s.Bytes += int64(len(c.Data))
		}
		if s.Trace != "" {
			t.rec.tieChunks(s.Trace, chunks)
		}
	})
	return chunks, err
}

// timedMQ wraps an MQ connection and times publishes, which include the
// wire framing and the broker round trip.
type timedMQ struct {
	seam
	inner mq.MQ
}

// timedBatchMQ adds the batch fast path; wrapMQ returns it exactly when the
// wrapped MQ offers one, so mq.PublishAll behaves as it would unwrapped.
type timedBatchMQ struct {
	*timedMQ
	batch mq.BatchPublisher
}

func wrapMQ(s seam, inner mq.MQ) mq.MQ {
	t := &timedMQ{seam: s, inner: inner}
	if bp, ok := inner.(mq.BatchPublisher); ok {
		return &timedBatchMQ{timedMQ: t, batch: bp}
	}
	return t
}

var (
	_ mq.MQ             = (*timedMQ)(nil)
	_ mq.BatchPublisher = (*timedBatchMQ)(nil)
)

func (t *timedMQ) DeclareQueue(name string) error { return t.inner.DeclareQueue(name) }
func (t *timedMQ) DeleteQueue(name string) error  { return t.inner.DeleteQueue(name) }
func (t *timedMQ) DeclareExchange(name string, kind mq.ExchangeKind) error {
	return t.inner.DeclareExchange(name, kind)
}
func (t *timedMQ) BindQueue(queue, exchange, key string) error {
	return t.inner.BindQueue(queue, exchange, key)
}
func (t *timedMQ) UnbindQueue(queue, exchange, key string) error {
	return t.inner.UnbindQueue(queue, exchange, key)
}
func (t *timedMQ) Subscribe(queue string, prefetch int) (mq.Subscription, error) {
	return t.inner.Subscribe(queue, prefetch)
}
func (t *timedMQ) QueueStats(name string) (mq.QueueStats, error) { return t.inner.QueueStats(name) }
func (t *timedMQ) Close() error                                  { return t.inner.Close() }

func (t *timedMQ) Publish(exchange, key string, msg mq.Message) error {
	return t.timed("mq.publish", func() error { return t.inner.Publish(exchange, key, msg) },
		func(s *span) { s.Bytes, s.Count = int64(len(msg.Body)), 1 })
}

func (t *timedBatchMQ) PublishBatch(pubs []mq.Publication) error {
	return t.timed("mq.publish", func() error { return t.batch.PublishBatch(pubs) },
		func(s *span) {
			for _, p := range pubs {
				s.Bytes += int64(len(p.Message.Body))
			}
			s.Count = int64(len(pubs))
		})
}
