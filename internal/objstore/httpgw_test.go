package objstore

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"testing"
)

func newGateway(t *testing.T, token string) *HTTPStore {
	t.Helper()
	srv := httptest.NewServer(NewHandler(NewMemory(), token))
	t.Cleanup(srv.Close)
	return NewHTTPStore(srv.URL, token)
}

// The full contract (incl. batch ops and ctx cancellation) runs through the
// storetest suite in conformance_test.go; these tests cover gateway-specific
// wire behaviour.

func TestHTTPStoreRoundTrip(t *testing.T) {
	s := newGateway(t, "")

	if err := s.Put(ctx, "nope", "k", []byte("v")); !errors.Is(err, ErrNoContainer) {
		t.Fatalf("put without container: %v", err)
	}
	if err := s.EnsureContainer(ctx, "c"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(ctx, "c", "absent"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get absent: %v", err)
	}
	ok, err := s.Exists(ctx, "c", "absent")
	if err != nil || ok {
		t.Fatalf("exists absent: %v %v", ok, err)
	}

	payload := []byte{0, 1, 2, 254, 255, 'x'}
	if err := s.Put(ctx, "c", "bin", payload); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(ctx, "c", "bin")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("get: %v %v", got, err)
	}
	ok, err = s.Exists(ctx, "c", "bin")
	if err != nil || !ok {
		t.Fatalf("exists: %v %v", ok, err)
	}
	if err := s.Put(ctx, "c", "second", []byte("2")); err != nil {
		t.Fatal(err)
	}
	keys, err := s.List(ctx, "c")
	if err != nil || len(keys) != 2 || keys[0] != "bin" || keys[1] != "second" {
		t.Fatalf("list: %v %v", keys, err)
	}
	if err := s.Delete(ctx, "c", "bin"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(ctx, "c", "bin"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get after delete: %v", err)
	}
	// Empty container listing.
	if err := s.EnsureContainer(ctx, "empty"); err != nil {
		t.Fatal(err)
	}
	keys, err = s.List(ctx, "empty")
	if err != nil || len(keys) != 0 {
		t.Fatalf("empty list: %v %v", keys, err)
	}
}

// TestHTTPStoreBatchRoundTrip moves binary payloads through the multi
// routes and checks the partial-result reconstruction on misses.
func TestHTTPStoreBatchRoundTrip(t *testing.T) {
	s := newGateway(t, "")
	if err := s.EnsureContainer(ctx, "c"); err != nil {
		t.Fatal(err)
	}
	objs := []Object{
		{Key: "a", Data: []byte{0, 255, 1, 254}},
		{Key: "b", Data: []byte("plain")},
		{Key: "empty", Data: nil},
	}
	if err := s.PutMulti(ctx, "c", objs); err != nil {
		t.Fatal(err)
	}
	data, err := s.GetMulti(ctx, "c", []string{"b", "a", "empty", "missing"})
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("batch miss error = %v", err)
	}
	if string(data[0]) != "plain" || !bytes.Equal(data[1], objs[0].Data) {
		t.Fatalf("batch data = %q", data)
	}
	if data[2] == nil || len(data[2]) != 0 {
		t.Fatalf("empty object = %v", data[2])
	}
	if data[3] != nil {
		t.Fatalf("missing object = %v, want nil", data[3])
	}
	present, err := s.ExistsMulti(ctx, "c", []string{"a", "missing", "empty"})
	if err != nil || !present[0] || present[1] || !present[2] {
		t.Fatalf("batch exists = %v, %v", present, err)
	}
}

// TestHTTPErrorMappingUniform: the gateway names the sentinel in a response
// header, so errors.Is classification is identical to local backends even
// where status codes collide (object-miss vs container-miss are both 404).
func TestHTTPErrorMappingUniform(t *testing.T) {
	s := newGateway(t, "")
	if err := s.EnsureContainer(ctx, "c"); err != nil {
		t.Fatal(err)
	}
	// Exists against a missing container must be ErrNoContainer, not a
	// silent false — the header disambiguates the two 404s on HEAD.
	if _, err := s.Exists(ctx, "nope", "k"); !errors.Is(err, ErrNoContainer) {
		t.Fatalf("exists without container: %v", err)
	}
	if _, err := s.GetMulti(ctx, "nope", []string{"k"}); !errors.Is(err, ErrNoContainer) {
		t.Fatalf("getmulti without container: %v", err)
	}
	if err := s.Delete(ctx, "nope", "k"); !errors.Is(err, ErrNoContainer) {
		t.Fatalf("delete without container: %v", err)
	}
	if _, err := s.Get(ctx, "c", "absent"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get absent object: %v", err)
	}
}

// TestHTTPStoreHonorsContext: a canceled context aborts the request and the
// context error survives errors.Is through the transport wrapping.
func TestHTTPStoreHonorsContext(t *testing.T) {
	s := newGateway(t, "")
	if err := s.EnsureContainer(ctx, "c"); err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Put(canceled, "c", "k", []byte("v")); !errors.Is(err, context.Canceled) {
		t.Fatalf("put with canceled ctx: %v", err)
	}
	if _, err := s.GetMulti(canceled, "c", []string{"k"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("getmulti with canceled ctx: %v", err)
	}
}

func TestHTTPStoreTokenAuth(t *testing.T) {
	srv := httptest.NewServer(NewHandler(NewMemory(), "secret"))
	t.Cleanup(srv.Close)

	good := NewHTTPStore(srv.URL, "secret")
	if err := good.EnsureContainer(ctx, "c"); err != nil {
		t.Fatal(err)
	}
	bad := NewHTTPStore(srv.URL, "wrong")
	if err := bad.EnsureContainer(ctx, "c"); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("wrong token: %v", err)
	}
	none := NewHTTPStore(srv.URL, "")
	if _, err := none.Get(ctx, "c", "k"); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("missing token: %v", err)
	}
	if err := none.PutMulti(ctx, "c", []Object{{Key: "k"}}); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("missing token batch: %v", err)
	}
}

func TestHTTPHandlerRejectsBadRoutes(t *testing.T) {
	s := newGateway(t, "")
	// POST on an object path is not a route.
	if err := s.EnsureContainer(ctx, "c"); err != nil {
		t.Fatal(err)
	}
	resp, err := s.do(ctx, "POST", s.url("c", "k"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Fatalf("POST status = %d, want 405", resp.StatusCode)
	}
	resp2, err := s.do(ctx, "GET", s.base+"/other")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != 404 {
		t.Fatalf("bad path status = %d, want 404", resp2.StatusCode)
	}
	// POST on a container with an unknown multi op.
	resp3, err := s.do(ctx, "POST", s.url("c", "")+"?multi=zap", []byte("[]"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if resp3.StatusCode != 400 {
		t.Fatalf("unknown multi op status = %d, want 400", resp3.StatusCode)
	}
}

func TestHTTPStoreKeysWithSpecialCharacters(t *testing.T) {
	s := newGateway(t, "")
	if err := s.EnsureContainer(ctx, "c"); err != nil {
		t.Fatal(err)
	}
	key := "weird key/with? things#"
	if err := s.Put(ctx, "c", key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(ctx, "c", key)
	if err != nil || string(got) != "v" {
		t.Fatalf("special key round trip: %q %v", got, err)
	}
}
