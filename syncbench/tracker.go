package main

import (
	"crypto/sha1"
	"fmt"
	"sync"
	"time"

	"stacksync/internal/client"
	"stacksync/internal/trace"
)

// op is one generated file operation on one workspace, with its expected
// outcome (version and content checksum) and what actually happened.
type op struct {
	id      string
	ws      string
	writer  *device
	action  trace.Action
	path    string
	version uint64
	content []byte // released once issued
	sum     [sha1.Size]byte
	size    int64         // file size after the op
	user    int64         // bytes the user wrote: ADD size, UPDATE change bytes
	timed   bool          // counts in latency metrics
	measure bool          // issued in the measured phase
	prev    *op           // previous op on the same path, which must be acked first
	offset  time.Duration // due time within an open-loop phase
	due     time.Time

	// Outcome, guarded by tracker.mu.
	start     time.Time // when the submitting call started
	committed time.Time
	syncedBy  []bool
	synced    int
	syncedAt  time.Time
	failure   string
	ackCh     chan struct{} // closed once committed or failed
	doneCh    chan struct{} // closed once committed and synced everywhere, or failed
	finished  bool
}

func (o *op) deleted() bool { return o.action == trace.REMOVE }

type opKey struct {
	ws, path string
	version  uint64
}

// tracker matches device events to ops and checks every synced byte.
type tracker struct {
	mu      sync.Mutex
	ops     []*op
	byKey   map[opKey]*op
	readers map[string][]*device // workspace -> reader devices
	// stray counts events no registered op explains (conflicts, unknown
	// versions, content mismatches outside any op): each is a failure.
	stray []string
}

func newTracker() *tracker {
	return &tracker{byKey: make(map[opKey]*op), readers: make(map[string][]*device)}
}

func (t *tracker) addReader(d *device) {
	t.mu.Lock()
	d.readerIdx = len(t.readers[d.ws])
	t.readers[d.ws] = append(t.readers[d.ws], d)
	t.mu.Unlock()
}

// register records an op before it is issued, so events racing the issuing
// call still find it.
func (t *tracker) register(o *op) {
	if o.content != nil || !o.deleted() {
		o.sum = sha1.Sum(o.content)
	}
	o.ackCh = make(chan struct{})
	o.doneCh = make(chan struct{})
	t.mu.Lock()
	o.syncedBy = make([]bool, len(t.readers[o.ws]))
	t.ops = append(t.ops, o)
	t.byKey[opKey{o.ws, o.path, o.version}] = o
	t.mu.Unlock()
}

func (t *tracker) lookup(ws, path string, version uint64) *op {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byKey[opKey{ws, path, version}]
}

// issued records the client call that submitted o.
func (t *tracker) issued(o *op, start time.Time, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	o.start = start
	if err != nil {
		t.failLocked(o, fmt.Sprintf("submit: %v", err))
	}
}

func (t *tracker) failureOf(o *op) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return o.failure
}

func (t *tracker) fail(o *op, why string) {
	t.mu.Lock()
	t.failLocked(o, why)
	t.mu.Unlock()
}

func (t *tracker) failLocked(o *op, why string) {
	if o.failure == "" {
		o.failure = why
	}
	t.finishLocked(o)
}

func (t *tracker) finishLocked(o *op) {
	if o.finished {
		return
	}
	o.finished = true
	if o.committed.IsZero() {
		close(o.ackCh)
	}
	close(o.doneCh)
}

func (t *tracker) maybeDoneLocked(o *op) {
	if !o.committed.IsZero() && o.synced == len(o.syncedBy) {
		t.finishLocked(o)
	}
}

// event handles one device event, stamped at receipt.
func (t *tracker) event(d *device, e client.Event, at time.Time) {
	switch e.Type {
	case client.LocalCommitted:
		o := t.lookup(d.ws, e.Path, e.Version)
		t.mu.Lock()
		defer t.mu.Unlock()
		if o == nil || o.writer != d {
			t.stray = append(t.stray, fmt.Sprintf("%s: unexpected commit %s v%d", d.name, e.Path, e.Version))
			return
		}
		if o.committed.IsZero() && !o.finished {
			o.committed = at
			close(o.ackCh)
			t.maybeDoneLocked(o)
		}
	case client.RemoteApplied:
		o := t.lookup(d.ws, e.Path, e.Version)
		if o == nil {
			t.mu.Lock()
			t.stray = append(t.stray, fmt.Sprintf("%s: unexpected remote %s v%d", d.name, e.Path, e.Version))
			t.mu.Unlock()
			return
		}
		bad := t.checkCopy(d, o.path, o.version)
		t.mu.Lock()
		defer t.mu.Unlock()
		if d.readerIdx >= len(o.syncedBy) || o.syncedBy[d.readerIdx] {
			return // a replayed notification: already counted
		}
		o.syncedBy[d.readerIdx] = true
		if bad != "" {
			t.failLocked(o, bad)
			return
		}
		o.synced++
		if o.synced == len(o.syncedBy) {
			o.syncedAt = at
		}
		t.maybeDoneLocked(o)
	case client.ConflictResolved:
		t.mu.Lock()
		t.stray = append(t.stray, fmt.Sprintf("%s: conflict copy %s", d.name, e.Path))
		t.mu.Unlock()
	}
}

// checkCopy compares a device's copy of path with the op that wrote the
// version the device holds; "" means it matches. atLeast is the oldest
// acceptable version.
func (t *tracker) checkCopy(d *device, path string, atLeast uint64) string {
	// The device keeps applying notifications while we look: read the
	// version on both sides of the content and retry until it held still.
	// Versions only grow, so equal reads bracket the content's version.
	var content []byte
	var live bool
	var v uint64
	for {
		before, _ := d.c.Version(path)
		content, live = d.c.FileContent(path)
		v, _ = d.c.Version(path)
		if v == before {
			break
		}
	}
	if !live {
		// Absent: fine if the version we expect (or a newer one) deleted it.
		// The client forgets a deleted item's version, so look for the
		// tombstone among the versions from atLeast on.
		for ver := atLeast; ; ver++ {
			w := t.lookup(d.ws, path, ver)
			if w == nil {
				return fmt.Sprintf("%s: %s absent, expected v%d", d.name, path, atLeast)
			}
			if w.deleted() {
				return ""
			}
		}
	}
	if v < atLeast {
		return fmt.Sprintf("%s: %s at v%d, expected v%d", d.name, path, v, atLeast)
	}
	w := t.lookup(d.ws, path, v)
	if w == nil {
		return fmt.Sprintf("%s: %s at unknown v%d", d.name, path, v)
	}
	if w.deleted() || sha1.Sum(content) != w.sum {
		return fmt.Sprintf("%s: %s v%d content mismatch", d.name, path, v)
	}
	return ""
}

// drain waits until every registered op has finished or the deadline
// passes; unfinished ops then fail as timed out.
func (t *tracker) drain(deadline time.Time) {
	t.mu.Lock()
	ops := append([]*op(nil), t.ops...)
	t.mu.Unlock()
	for _, o := range ops {
		select {
		case <-o.doneCh:
		case <-time.After(time.Until(deadline)):
			t.mu.Lock()
			switch {
			case o.finished:
			case o.start.IsZero():
				t.failLocked(o, "never issued")
			case o.committed.IsZero():
				t.failLocked(o, "timed out before its commit was acknowledged")
			default:
				t.failLocked(o, fmt.Sprintf("timed out with %d/%d readers synced", o.synced, len(o.syncedBy)))
			}
			t.mu.Unlock()
		}
	}
}

// finalState maps every path each workspace has seen to the last op acked
// on it.
func (t *tracker) finalState() map[string]map[string]*op {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]map[string]*op)
	for _, o := range t.ops {
		if o.committed.IsZero() {
			continue
		}
		m := out[o.ws]
		if m == nil {
			m = make(map[string]*op)
			out[o.ws] = m
		}
		if cur := m[o.path]; cur == nil || o.version > cur.version {
			m[o.path] = o
		}
	}
	return out
}

// outcome summarises the ops of the measured phase.
type outcome struct {
	attempted, failed int
	failures          []string
	commit, sync      []float64 // ms from due, timed ops only
	late              []float64 // ms the submitting call started after due
	userBytes         int64
	deliveredBytes    int64
	lastDelivery      time.Time
}

func (t *tracker) outcome() outcome {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out outcome
	for _, o := range t.ops {
		if !o.measure {
			if o.failure != "" {
				out.failed++
				out.failures = append(out.failures, o.id+": "+o.failure)
			}
			continue
		}
		out.attempted++
		if !o.start.IsZero() {
			out.late = append(out.late, ms(o.start.Sub(o.due)))
		}
		if o.failure != "" {
			out.failed++
			out.failures = append(out.failures, o.id+": "+o.failure)
			continue
		}
		out.userBytes += o.user
		if !o.syncedAt.IsZero() {
			if !o.deleted() {
				out.deliveredBytes += o.size
			}
			if o.syncedAt.After(out.lastDelivery) {
				out.lastDelivery = o.syncedAt
			}
		}
		if o.timed {
			out.commit = append(out.commit, ms(o.committed.Sub(o.due)))
			out.sync = append(out.sync, ms(o.syncedAt.Sub(o.due)))
		}
	}
	out.failed += len(t.stray)
	out.failures = append(out.failures, t.stray...)
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
