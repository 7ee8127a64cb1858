package objstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// joinBody flattens request body slices into one buffer.
func joinBody(body [][]byte) []byte { return bytes.Join(body, nil) }

// getReply renders a multi=get reply into bytes.
func getReply(data [][]byte) []byte {
	rec := httptest.NewRecorder()
	writeGetReply(rec, data)
	return rec.Body.Bytes()
}

// uv is one uvarint.
func uv(x uint64) []byte { return binary.AppendUvarint(nil, x) }

// FuzzGatewayBatch throws arbitrary bodies at the batch request and get
// reply parsers and at the gateway's multi=put/get routes. Every input must
// end in a clean error (400 or 413 over HTTP), never a panic or a 5xx, and
// whatever parses must survive a re-encode round trip.
func FuzzGatewayBatch(f *testing.F) {
	valid := joinBody(encodeBatchRequest([]Object{{Key: "a", Data: []byte("xyz")}, {Key: "b"}}))
	reply := getReply([][]byte{[]byte("xyz"), nil, {}})
	seeds := [][]byte{
		nil,
		valid,
		valid[:len(valid)-1], // truncated inside data
		valid[:2],            // truncated inside key
		valid[:1],            // key length only
		reply,
		reply[:len(reply)-2],
		bytes.Repeat([]byte{0xff}, 11), // varint overflows 64 bits
		append(uv(1<<40), 'k'),         // key longer than the body
		append(append(uv(1), 'k'), uv(64<<20)...),         // data longer than the body
		append(append(uv(1), 'k'), 0),                     // empty object
		append(uv(0), 0),                                  // missing key
		append(append(uv(1), 'k'), append(uv(2), 'x')...), // data cut short
		{2, 0},    // bad found flag
		{0, 1, 9}, // miss carrying data
	}
	for _, s := range seeds {
		f.Add(s, uint8(3))
	}
	f.Fuzz(func(t *testing.T, body []byte, n uint8) {
		objs, err := readBatchRequest(bytes.NewReader(body), int64(len(body)), errBatchShort)
		if err == nil {
			again, err := readBatchRequest(bytes.NewReader(joinBody(encodeBatchRequest(objs))), 1<<30, errBatchShort)
			if err != nil || len(again) != len(objs) {
				t.Fatalf("re-encoded request: %d objects, %v; want %d", len(again), err, len(objs))
			}
			for i := range objs {
				if again[i].Key != objs[i].Key || !bytes.Equal(again[i].Data, objs[i].Data) || again[i].Data == nil {
					t.Fatalf("object %d changed across a round trip", i)
				}
			}
		}
		want := int(n % 8)
		data, err := readGetReply(bytes.NewReader(body), int64(len(body)), errBatchShort, want)
		if err == nil {
			if len(data) != want {
				t.Fatalf("reply parsed into %d entries, want %d", len(data), want)
			}
			again, err := readGetReply(bytes.NewReader(getReply(data)), 1<<30, errBatchShort, want)
			if err != nil {
				t.Fatalf("re-encoded reply: %v", err)
			}
			for i := range data {
				if (again[i] == nil) != (data[i] == nil) || !bytes.Equal(again[i], data[i]) {
					t.Fatalf("entry %d changed across a round trip", i)
				}
			}
		}

		h := NewHandler(NewMemory(), "")
		h.maxBody = 64
		_ = h.store.EnsureContainer(ctx, "c")
		for _, op := range []string{"put", "get"} {
			req := httptest.NewRequest(http.MethodPost, "/v1/c?multi="+op, bytes.NewReader(body))
			if n%2 == 1 {
				req.ContentLength = -1 // chunked: only the size limit bounds lengths
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			switch rec.Code {
			case http.StatusOK, http.StatusCreated, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			default:
				t.Fatalf("multi=%s answered %d: %s", op, rec.Code, rec.Body.String())
			}
		}
	})
}

// TestBatchRejectsLengthBeforeAllocating: a tiny body declaring a 1 GB
// object fails without allocating anything near that size.
func TestBatchRejectsLengthBeforeAllocating(t *testing.T) {
	body := append(append(uv(1), 'k'), uv(1<<30)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readBatchRequest(bytes.NewReader(body), int64(len(body)), errBatchShort)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, errBatchShort) {
		t.Fatalf("err = %v, want errBatchShort", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("rejecting the body allocated %d bytes", grew)
	}
	reply := append([]byte{1}, uv(1<<30)...)
	if _, err := readGetReply(bytes.NewReader(reply), int64(len(reply)), errBatchShort, 1); !errors.Is(err, errBatchShort) {
		t.Fatalf("reply err = %v, want errBatchShort", err)
	}
}

// TestHTTPStoreLargeBatchRoundTrip moves a full transfer batch of
// 16 default-size chunks through both binary routes.
func TestHTTPStoreLargeBatchRoundTrip(t *testing.T) {
	s := newGateway(t, "")
	if err := s.EnsureContainer(ctx, "c"); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	objs := make([]Object, 16)
	keys := make([]string, len(objs))
	for i := range objs {
		data := make([]byte, 512<<10)
		r.Read(data)
		objs[i] = Object{Key: fmt.Sprintf("chunk-%02d", i), Data: data}
		keys[len(objs)-1-i] = objs[i].Key // fetch in reverse order
	}
	if err := s.PutMulti(ctx, "c", objs); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetMulti(ctx, "c", keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range got {
		if want := objs[len(objs)-1-i].Data; !bytes.Equal(d, want) {
			t.Fatalf("entry %d: %d bytes, want %d", i, len(d), len(want))
		}
		if cap(d) != len(d) {
			t.Fatalf("entry %d: cap %d for %d bytes; each object needs its own buffer", i, cap(d), len(d))
		}
	}
}

// TestHTTPStoreGetMultiContract: found-but-empty comes back as a non-nil
// empty slice, every miss as nil, and the misses as one joined
// ErrNotFound naming each key.
func TestHTTPStoreGetMultiContract(t *testing.T) {
	s := newGateway(t, "")
	if err := s.EnsureContainer(ctx, "c"); err != nil {
		t.Fatal(err)
	}
	if err := s.PutMulti(ctx, "c", []Object{{Key: "empty"}, {Key: "full", Data: []byte{0}}}); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetMulti(ctx, "c", []string{"miss-1", "empty", "full", "miss-2"})
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	for _, key := range []string{"miss-1", "miss-2"} {
		if !strings.Contains(err.Error(), key) {
			t.Fatalf("err %q does not name %s", err, key)
		}
	}
	if len(got) != 4 || got[0] != nil || got[3] != nil {
		t.Fatalf("misses = %v, want nil entries", got)
	}
	if got[1] == nil || len(got[1]) != 0 {
		t.Fatalf("empty object = %#v, want a non-nil empty slice", got[1])
	}
	if !bytes.Equal(got[2], []byte{0}) {
		t.Fatalf("full object = %v", got[2])
	}
	if got, err := s.GetMulti(ctx, "c", nil); err != nil || len(got) != 0 {
		t.Fatalf("empty batch = %v, %v", got, err)
	}
}

// TestOversizeBatchStoresNothing: a batch body past the gateway's limit is
// refused whole with 413, even when the limit falls exactly on an object
// boundary and the prefix alone would parse.
func TestOversizeBatchStoresNothing(t *testing.T) {
	mem := NewMemory()
	h := NewHandler(mem, "")
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	s := NewHTTPStore(srv.URL, "")
	if err := s.EnsureContainer(ctx, "c"); err != nil {
		t.Fatal(err)
	}
	objs := []Object{{Key: "first", Data: bytes.Repeat([]byte{1}, 100)}, {Key: "second", Data: bytes.Repeat([]byte{2}, 100)}}
	first := joinBody(encodeBatchRequest(objs[:1]))
	h.maxBody = int64(len(first))

	if err := s.PutMulti(ctx, "c", objs); err == nil {
		t.Fatal("oversize PutMulti succeeded")
	}
	// Chunked, so the gateway cannot refuse it from Content-Length alone.
	body := io.MultiReader(bytes.NewReader(joinBody(encodeBatchRequest(objs))))
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/c?multi=put", body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("chunked oversize batch: status %d, want 413", resp.StatusCode)
	}
	if keys, err := mem.List(ctx, "c"); err != nil || len(keys) != 0 {
		t.Fatalf("stored %v (%v), want nothing", keys, err)
	}
	if err := s.PutMulti(ctx, "c", objs[:1]); err != nil {
		t.Fatalf("batch at the limit: %v", err)
	}
}

// TestHTTPStoreReusesConnections: rounds of parallel batches from several
// stores in one process run over the connections of the first round. The
// default transport keeps only 2 idle connections per host, so every round
// of 8 would close 6 and dial 6 new ones.
func TestHTTPStoreReusesConnections(t *testing.T) {
	srv := httptest.NewUnstartedServer(NewHandler(NewMemory(), ""))
	var dials atomic.Int64
	srv.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			dials.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	stores := []*HTTPStore{NewHTTPStore(srv.URL, ""), NewHTTPStore(srv.URL, "")}
	if err := stores[0].EnsureContainer(ctx, "c"); err != nil {
		t.Fatal(err)
	}
	const parallel, rounds = 8, 20
	objs := []Object{{Key: "k", Data: bytes.Repeat([]byte{7}, 4096)}}
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		errs := make(chan error, parallel)
		for w := 0; w < parallel; w++ {
			wg.Add(1)
			go func(s *HTTPStore) {
				defer wg.Done()
				if err := s.PutMulti(ctx, "c", objs); err != nil {
					errs <- err
					return
				}
				if _, err := s.GetMulti(ctx, "c", []string{"k"}); err != nil {
					errs <- err
				}
			}(stores[w%len(stores)])
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
	if n := dials.Load(); n > 2*parallel {
		t.Fatalf("%d connections over %d rounds of %d parallel batches, want <= %d", n, rounds, parallel, 2*parallel)
	}
}
