package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"stacksync/internal/chunker"
	"stacksync/internal/client"
	"stacksync/internal/codec"
	"stacksync/internal/core"
	"stacksync/internal/mq"
	"stacksync/internal/objstore"
	"stacksync/internal/omq"
)

// device is one in-process client.Client with its own ObjectMQ endpoint
// and storage handle. Devices share the fleet's broker connections.
type device struct {
	name      string
	ws        string
	c         *client.Client
	broker    *omq.Broker
	store     *objstore.Metered
	scope     *opScope
	readerIdx int

	mu sync.Mutex // one op at a time per device
}

// fleet is the load side of a run: nproc broker connections, the devices
// multiplexed over them, and the tracker their events feed.
type fleet struct {
	srv     *server
	rec     *recorder // nil when untraced
	tr      *tracker
	conns   []*mq.Client
	meters  []*mq.MeteredMQ
	devices []*device

	stop chan struct{}
	wg   sync.WaitGroup
}

func newFleet(srv *server, rec *recorder) (*fleet, error) {
	f := &fleet{srv: srv, rec: rec, tr: newTracker(), stop: make(chan struct{})}
	for i := 0; i < runtime.NumCPU(); i++ {
		conn, err := mq.Dial(srv.broker)
		if err != nil {
			f.close()
			return nil, err
		}
		f.conns = append(f.conns, conn)
		f.meters = append(f.meters, mq.NewMeteredMQ(conn))
	}
	return f, nil
}

// addDevice starts a device on workspace ws. Readers have their events
// checked against the writer's ops.
func (f *fleet) addDevice(name, ws string, reader bool) (*device, error) {
	d := &device{name: name, ws: ws, scope: &opScope{}}
	sm := seam{rec: f.rec, scope: d.scope}
	var link mq.MQ = f.meters[len(f.devices)%len(f.meters)]
	var store objstore.Store = objstore.NewHTTPStore("http://"+f.srv.storage, "")
	var opts []omq.BrokerOption
	cfg := client.Config{UserID: "bench", DeviceID: name, WorkspaceID: ws, EventBuffer: 1 << 16}
	if f.rec != nil {
		link = wrapMQ(sm, link)
		store = &timedStore{seam: sm, inner: store}
		opts = append(opts, omq.WithCodec(&timedCodec{seam: sm, inner: codec.Default()}))
		cfg.Chunker = &timedChunker{seam: sm, inner: chunker.NewFixed()}
	}
	b, err := omq.NewBroker(link, opts...)
	if err != nil {
		return nil, err
	}
	d.broker = b
	d.store = objstore.NewMetered(store)
	cfg.Broker, cfg.Storage = b, d.store
	c, err := client.NewClient(cfg)
	if err != nil {
		b.Close()
		return nil, err
	}
	d.c = c
	if reader {
		f.tr.addReader(d)
	}
	f.wg.Add(1)
	go f.consume(d)
	if err := c.Start(); err != nil {
		b.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	f.devices = append(f.devices, d)
	return d, nil
}

// consume stamps and forwards a device's events until the fleet stops.
func (f *fleet) consume(d *device) {
	defer f.wg.Done()
	for {
		select {
		case e := <-d.c.Events():
			f.tr.event(d, e, time.Now())
		case <-f.stop:
			return
		}
	}
}

// issue submits o on its writer device once the previous op on the same
// path is acknowledged, recording a client.op span when traced.
func (f *fleet) issue(o *op) {
	if o.prev != nil {
		select {
		case <-o.prev.ackCh:
		case <-time.After(10 * time.Second):
			f.tr.fail(o, "previous op on the path never acknowledged")
			return
		}
	}
	d := o.writer
	d.mu.Lock()
	d.scope.set(o.id)
	start := time.Now()
	var err error
	if o.deleted() {
		err = d.c.RemoveFile(o.path)
	} else {
		err = d.c.PutFile(o.path, o.content)
	}
	end := time.Now()
	d.scope.clear()
	d.mu.Unlock()
	o.content = nil
	if f.rec.on() {
		f.rec.add(span{Name: "client.op", Trace: o.id, Start: f.rec.since(start), End: f.rec.since(end), Err: err != nil})
	}
	f.tr.issued(o, start, err)
}

// preload commits ops in one PutBatch per group, outside the measured
// phase, and waits until every reader holds them.
func (f *fleet) preload(writer *device, ops []*op, group int, timeout time.Duration) error {
	for len(ops) > 0 {
		n := group
		if n > len(ops) {
			n = len(ops)
		}
		batch := ops[:n]
		ops = ops[n:]
		changes := make([]client.Change, len(batch))
		for i, o := range batch {
			f.tr.register(o)
			changes[i] = client.Change{Path: o.path, Content: o.content}
		}
		start := time.Now()
		err := writer.c.PutBatch(changes)
		for _, o := range batch {
			o.content = nil
			f.tr.issued(o, start, err)
		}
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		deadline := time.Now().Add(timeout)
		for _, o := range batch {
			select {
			case <-o.doneCh:
			case <-time.After(time.Until(deadline)):
				return fmt.Errorf("preload: %s not synced within %v", o.path, timeout)
			}
			if why := f.tr.failureOf(o); why != "" {
				return fmt.Errorf("preload: %s: %s", o.path, why)
			}
		}
	}
	return nil
}

// openLoop submits ops at their due times (start plus each op's offset)
// using at most nproc sender goroutines, and returns the ops once every one
// is submitted.
func (f *fleet) openLoop(src <-chan *op, start time.Time) []*op {
	// Buffered so a stall in the senders never delays the dispatcher's
	// clock: a stall shows up as lateness instead.
	ch := make(chan *op, 4096)
	var wg sync.WaitGroup
	for i := 0; i < len(f.conns); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for o := range ch {
				f.issue(o)
			}
		}()
	}
	var ops []*op
	for o := range src {
		o.due = start.Add(o.offset)
		f.tr.register(o)
		ops = append(ops, o)
		if d := time.Until(o.due); d > 0 {
			time.Sleep(d)
		}
		ch <- o
	}
	close(ch)
	wg.Wait()
	return ops
}

// gauges is what the phase sampler saw.
type gauges struct {
	queueMax int       // deepest the SyncService request queue got
	rss      []float64 // the server's VmRSS samples, bytes
}

// samplePhase polls the SyncService request queue every 20 ms and the
// server's resident set every 100 ms until stop closes.
func (f *fleet) samplePhase(stop <-chan struct{}) <-chan gauges {
	out := make(chan gauges, 1)
	go func() {
		var g gauges
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for tick := 0; ; tick++ {
			select {
			case <-stop:
				out <- g
				return
			case <-t.C:
				if st, err := f.conns[0].QueueStats(core.ServiceOID); err == nil && st.Depth > g.queueMax {
					g.queueMax = st.Depth
				}
				if tick%5 == 0 {
					if rss, err := memStat(f.srv.pid(), "VmRSS"); err == nil {
						g.rss = append(g.rss, float64(rss))
					}
				}
			}
		}
	}()
	return out
}

// mqBytes sums the metered broker traffic of every connection.
func (f *fleet) mqBytes() (up, down uint64) {
	for _, m := range f.meters {
		t := m.Traffic()
		up += t.BytesUp
		down += t.BytesDown
	}
	return up, down
}

// storeBytes sums the storage traffic of every device.
func (f *fleet) storeBytes() uint64 {
	var n uint64
	for _, d := range f.devices {
		n += d.store.Traffic().Total()
	}
	return n
}

// close stops every device and connection.
func (f *fleet) close() {
	for _, d := range f.devices {
		_ = d.c.Close()
		_ = d.broker.Close()
	}
	select {
	case <-f.stop:
	default:
		close(f.stop)
	}
	f.wg.Wait()
	for _, c := range f.conns {
		_ = c.Close()
	}
	f.devices = nil
	f.conns = nil
}

// converged reports, per workspace, devices whose paths or versions differ
// from the writer's.
func (f *fleet) converged() []string {
	var diffs []string
	byWS := make(map[string][]*device)
	for _, d := range f.devices {
		byWS[d.ws] = append(byWS[d.ws], d)
	}
	for ws, devs := range byWS {
		ref := devs[0]
		want := versions(ref)
		for _, d := range devs[1:] {
			got := versions(d)
			if len(got) != len(want) {
				diffs = append(diffs, fmt.Sprintf("%s: %s holds %d paths, %s %d", ws, d.name, len(got), ref.name, len(want)))
				continue
			}
			for p, v := range want {
				if got[p] != v {
					diffs = append(diffs, fmt.Sprintf("%s: %s has %s v%d, %s v%d", ws, d.name, p, got[p], ref.name, v))
					break
				}
			}
		}
	}
	return diffs
}

func versions(d *device) map[string]uint64 {
	out := make(map[string]uint64)
	for _, p := range d.c.Paths() {
		if v, ok := d.c.Version(p); ok {
			out[p] = v
		}
	}
	return out
}
