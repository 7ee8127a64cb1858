package objstore

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strings"
	"sync"
)

// HTTP gateway: exposes a Store over a Swift-flavoured REST API so that
// clients on other machines reach the Storage back-end directly (the
// decoupled data flow of §4). Routes:
//
//	PUT    /v1/{container}                  create container
//	GET    /v1/{container}                  list objects (newline-separated)
//	POST   /v1/{container}?multi=put        batch store (binary batch body)
//	POST   /v1/{container}?multi=get        batch fetch (binary batch body -> binary get reply)
//	POST   /v1/{container}?multi=exists     batch probe (JSON [keys] -> [bool])
//	PUT    /v1/{container}/{object}         store object (body = content)
//	GET    /v1/{container}/{object}         fetch object
//	HEAD   /v1/{container}/{object}         existence check
//	DELETE /v1/{container}/{object}         delete object
//
// multi=put and multi=get carry chunk bytes, so their bodies are
// length-prefixed binary rather than JSON+base64 (batch.go has the
// framing): the request is a sequence of {uvarint keylen, key, uvarint
// datalen, data} entries (datalen 0 for get), the get reply one
// {found byte, uvarint datalen, data} entry per key. A batch body larger
// than maxBatchBody is refused whole with 413.
//
// An optional bearer token (X-Auth-Token, as in Swift) gates all routes.
// Error responses carry an X-Objstore-Error header naming the sentinel
// ("not-found", "no-container", "unauthorized") so HTTPStore maps remote
// failures onto the same errors.Is-able values local backends return.

// errHeader is the response header carrying the sentinel error kind.
const errHeader = "X-Objstore-Error"

// maxBatchBody bounds a batch request body read by the gateway (64 MB).
const maxBatchBody = 64 << 20

// maxIdleConnsPerHost is how many idle gateway connections HTTPStore
// keeps. The default transport keeps 2, fewer than the transfer workers of
// one device, so parallel batches would keep dialing new connections.
const maxIdleConnsPerHost = 16

// gatewayTransport is shared by every HTTPStore of the process, so devices
// in one process reuse each other's idle connections.
var gatewayTransport = sync.OnceValue(func() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = maxIdleConnsPerHost
	return t
})

// Handler serves a Store over HTTP.
type Handler struct {
	store Store
	// token, when non-empty, must match the X-Auth-Token header.
	token string
	// maxBody bounds batch request bodies (maxBatchBody).
	maxBody int64
}

var _ http.Handler = (*Handler)(nil)

// NewHandler wraps store; token "" disables authentication.
func NewHandler(store Store, token string) *Handler {
	return &Handler{store: store, token: token, maxBody: maxBatchBody}
}

// ServeHTTP dispatches gateway requests.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.token != "" && r.Header.Get("X-Auth-Token") != h.token {
		w.Header().Set(errHeader, "unauthorized")
		http.Error(w, "unauthorized", http.StatusUnauthorized)
		return
	}
	rest, ok := strings.CutPrefix(r.URL.Path, "/v1/")
	if !ok || rest == "" {
		http.Error(w, "not found", http.StatusNotFound)
		return
	}
	container, object, hasObject := strings.Cut(rest, "/")
	if container == "" {
		http.Error(w, "container required", http.StatusBadRequest)
		return
	}
	ctx := r.Context()
	var err error
	switch {
	case !hasObject && r.Method == http.MethodPost:
		h.serveBatch(w, r, container)
		return
	case !hasObject && r.Method == http.MethodPut:
		err = h.store.EnsureContainer(ctx, container)
		if err == nil {
			w.WriteHeader(http.StatusCreated)
		}
	case !hasObject && r.Method == http.MethodGet:
		var keys []string
		keys, err = h.store.List(ctx, container)
		if err == nil {
			sort.Strings(keys)
			w.Header().Set("Content-Type", "text/plain")
			_, _ = io.WriteString(w, strings.Join(keys, "\n"))
		}
	case hasObject && r.Method == http.MethodPut:
		var body []byte
		body, err = io.ReadAll(r.Body)
		if err == nil {
			err = h.store.Put(ctx, container, object, body)
		}
		if err == nil {
			w.WriteHeader(http.StatusCreated)
		}
	case hasObject && r.Method == http.MethodGet:
		var data []byte
		data, err = h.store.Get(ctx, container, object)
		if err == nil {
			w.Header().Set("Content-Type", "application/octet-stream")
			_, _ = w.Write(data)
		}
	case hasObject && r.Method == http.MethodHead:
		var exists bool
		exists, err = h.store.Exists(ctx, container, object)
		if err == nil && !exists {
			w.Header().Set(errHeader, "not-found")
			w.WriteHeader(http.StatusNotFound)
			return
		}
	case hasObject && r.Method == http.MethodDelete:
		err = h.store.Delete(ctx, container, object)
		if err == nil {
			w.WriteHeader(http.StatusNoContent)
		}
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if err != nil {
		writeError(w, err)
	}
}

// serveBatch dispatches the multi=put/get/exists routes.
func (h *Handler) serveBatch(w http.ResponseWriter, r *http.Request, container string) {
	ctx := r.Context()
	if r.ContentLength > h.maxBody {
		http.Error(w, errBatchTooLarge.Error(), http.StatusRequestEntityTooLarge)
		return
	}
	// Read at most one byte past the limit: seeing it means the body is too
	// large, and the whole batch is refused rather than cut short.
	body := io.LimitReader(r.Body, h.maxBody+1)
	switch r.URL.Query().Get("multi") {
	case "put":
		objs, err := h.readBatch(r, body)
		if err != nil {
			writeBatchError(w, err)
			return
		}
		if err := h.store.PutMulti(ctx, container, objs); err != nil {
			writeError(w, err)
			return
		}
		w.WriteHeader(http.StatusCreated)
	case "get":
		objs, err := h.readBatch(r, body)
		if err != nil {
			writeBatchError(w, err)
			return
		}
		keys := make([]string, len(objs))
		for i, o := range objs {
			keys[i] = o.Key
		}
		data, err := h.store.GetMulti(ctx, container, keys)
		if err != nil && !errors.Is(err, ErrNotFound) {
			// Misses are encoded per entry; anything else aborts the batch.
			writeError(w, err)
			return
		}
		if len(data) != len(keys) {
			data = make([][]byte, len(keys))
		}
		writeGetReply(w, data)
	case "exists":
		raw, err := io.ReadAll(body)
		if err == nil && int64(len(raw)) > h.maxBody {
			err = errBatchTooLarge
		}
		if err != nil {
			writeBatchError(w, err)
			return
		}
		var keys []string
		if err := json.Unmarshal(raw, &keys); err != nil {
			http.Error(w, "decode batch: "+err.Error(), http.StatusBadRequest)
			return
		}
		present, err := h.store.ExistsMulti(ctx, container, keys)
		if err != nil {
			writeError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(present)
	default:
		http.Error(w, "unknown batch operation", http.StatusBadRequest)
	}
}

// readBatch parses a binary batch request body. A body of declared length
// is checked against that length; a body of unknown length (chunked) is
// checked against the size limit, so overrunning it is errBatchTooLarge.
func (h *Handler) readBatch(r *http.Request, body io.Reader) ([]Object, error) {
	if r.ContentLength >= 0 {
		return readBatchRequest(body, r.ContentLength, errBatchShort)
	}
	return readBatchRequest(body, h.maxBody, errBatchTooLarge)
}

// writeBatchError answers a batch body that could not be read: 413 when
// it was too large, 400 otherwise.
func writeBatchError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	if errors.Is(err, errBatchTooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	http.Error(w, "read batch: "+err.Error(), status)
}

// writeError maps a store error onto a status code and sentinel header.
func writeError(w http.ResponseWriter, err error) {
	status, kind := statusFor(err)
	if kind != "" {
		w.Header().Set(errHeader, kind)
	}
	http.Error(w, err.Error(), status)
}

// statusFor returns the HTTP status and sentinel kind of a store error.
func statusFor(err error) (int, string) {
	switch {
	case errors.Is(err, ErrNoContainer):
		return http.StatusNotFound, "no-container"
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound, "not-found"
	case errors.Is(err, ErrUnauthorized):
		return http.StatusForbidden, "unauthorized"
	default:
		return http.StatusInternalServerError, ""
	}
}

// sentinelFor inverts statusFor on the client side: header first (our own
// gateway), then status-code heuristics (foreign Swift-like gateways).
func sentinelFor(resp *http.Response, msg string) error {
	switch resp.Header.Get(errHeader) {
	case "no-container":
		return ErrNoContainer
	case "not-found":
		return ErrNotFound
	case "unauthorized":
		return ErrUnauthorized
	}
	switch resp.StatusCode {
	case http.StatusNotFound:
		if strings.Contains(msg, "container") {
			return ErrNoContainer
		}
		return ErrNotFound
	case http.StatusUnauthorized, http.StatusForbidden:
		return ErrUnauthorized
	}
	return nil
}

// HTTPStore is a Store backed by a remote gateway.
type HTTPStore struct {
	base   string
	token  string
	client *http.Client
}

var _ Store = (*HTTPStore)(nil)

// NewHTTPStore points at a gateway base URL (e.g. "http://host:8080").
func NewHTTPStore(baseURL, token string) *HTTPStore {
	return &HTTPStore{
		base:   strings.TrimSuffix(baseURL, "/"),
		token:  token,
		client: &http.Client{Transport: gatewayTransport()},
	}
}

func (s *HTTPStore) url(container, object string) string {
	u := s.base + "/v1/" + url.PathEscape(container)
	if object != "" {
		u += "/" + url.PathEscape(object)
	}
	return u
}

// do issues one request bound to ctx; canceling the context aborts the
// request mid-flight and surfaces the context's error to errors.Is. The
// body slices are sent in order as one body with its Content-Length set,
// without being copied into one buffer first.
func (s *HTTPStore) do(ctx context.Context, method, u string, body ...[]byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, u, nil)
	if err != nil {
		return nil, fmt.Errorf("objstore: build request: %w", err)
	}
	for _, b := range body {
		req.ContentLength += int64(len(b))
	}
	if req.ContentLength > 0 {
		// GetBody lets the transport resend the body on a fresh connection
		// when a reused idle one turns out to be closed.
		req.GetBody = func() (io.ReadCloser, error) {
			bufs := net.Buffers(slices.Clone(body))
			return io.NopCloser(&bufs), nil
		}
		req.Body, _ = req.GetBody() // cannot fail
	}
	if s.token != "" {
		req.Header.Set("X-Auth-Token", s.token)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("objstore: %s %s: %w", method, u, err)
	}
	return resp, nil
}

// checkStatus maps non-2xx responses onto the objstore sentinel errors so
// errors.Is behaves identically across local and remote backends.
func (s *HTTPStore) checkStatus(resp *http.Response) error {
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return nil
	}
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	trimmed := strings.TrimSpace(string(msg))
	if sentinel := sentinelFor(resp, trimmed); sentinel != nil {
		return fmt.Errorf("objstore: remote: %s: %w", trimmed, sentinel)
	}
	return fmt.Errorf("objstore: remote status %d: %s", resp.StatusCode, trimmed)
}

// EnsureContainer creates the remote container.
func (s *HTTPStore) EnsureContainer(ctx context.Context, container string) error {
	resp, err := s.do(ctx, http.MethodPut, s.url(container, ""))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return s.checkStatus(resp)
}

// Put stores an object remotely.
func (s *HTTPStore) Put(ctx context.Context, container, key string, data []byte) error {
	resp, err := s.do(ctx, http.MethodPut, s.url(container, key), data)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return s.checkStatus(resp)
}

// Get fetches an object remotely.
func (s *HTTPStore) Get(ctx context.Context, container, key string) ([]byte, error) {
	resp, err := s.do(ctx, http.MethodGet, s.url(container, key))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if err := s.checkStatus(resp); err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("objstore: read body: %w", err)
	}
	return data, nil
}

// Exists checks object presence remotely. A plain not-found is a false
// answer, not an error; a missing container is ErrNoContainer, as locally.
func (s *HTTPStore) Exists(ctx context.Context, container, key string) (bool, error) {
	resp, err := s.do(ctx, http.MethodHead, s.url(container, key))
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound && resp.Header.Get(errHeader) != "no-container" {
		return false, nil
	}
	if err := s.checkStatus(resp); err != nil {
		return false, err
	}
	return true, nil
}

// Delete removes an object remotely.
func (s *HTTPStore) Delete(ctx context.Context, container, key string) error {
	resp, err := s.do(ctx, http.MethodDelete, s.url(container, key))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return s.checkStatus(resp)
}

// List enumerates a remote container.
func (s *HTTPStore) List(ctx context.Context, container string) ([]string, error) {
	resp, err := s.do(ctx, http.MethodGet, s.url(container, ""))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if err := s.checkStatus(resp); err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("objstore: read list: %w", err)
	}
	if len(body) == 0 {
		return nil, nil
	}
	return strings.Split(string(body), "\n"), nil
}

// postBatch issues one multi=<op> request and checks its status; the
// caller reads and closes the response body.
func (s *HTTPStore) postBatch(ctx context.Context, container, op string, body ...[]byte) (*http.Response, error) {
	resp, err := s.do(ctx, http.MethodPost, s.url(container, "")+"?multi="+op, body...)
	if err != nil {
		return nil, err
	}
	if err := s.checkStatus(resp); err != nil {
		resp.Body.Close()
		return nil, err
	}
	return resp, nil
}

// PutMulti ships the whole batch in one round trip; the object data goes
// out as-is behind the binary entry headers.
func (s *HTTPStore) PutMulti(ctx context.Context, container string, objects []Object) error {
	resp, err := s.postBatch(ctx, container, "put", encodeBatchRequest(objects)...)
	if err != nil {
		return err
	}
	return resp.Body.Close()
}

// GetMulti fetches the whole batch in one round trip, reconstructing the
// partial-result contract from the per-entry found flags. Every object is
// read into its own buffer, so keeping one does not pin the whole reply.
func (s *HTTPStore) GetMulti(ctx context.Context, container string, keys []string) ([][]byte, error) {
	objs := make([]Object, len(keys))
	for i, k := range keys {
		objs[i].Key = k
	}
	resp, err := s.postBatch(ctx, container, "get", encodeBatchRequest(objs)...)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	left, overrun := resp.ContentLength, errBatchShort
	if left < 0 { // a chunked reply is held to the request limit
		left, overrun = maxBatchBody, errBatchTooLarge
	}
	out, err := readGetReply(resp.Body, left, overrun, len(keys))
	if err != nil {
		return nil, fmt.Errorf("objstore: decode batch: %w", err)
	}
	var errs []error
	for i, d := range out {
		if d == nil {
			errs = append(errs, opErr("getmulti", container, keys[i], ErrNotFound))
		}
	}
	return out, errors.Join(errs...)
}

// ExistsMulti probes the whole batch in one round trip (JSON both ways:
// the bodies are keys and flags, not chunk bytes).
func (s *HTTPStore) ExistsMulti(ctx context.Context, container string, keys []string) ([]bool, error) {
	body, err := json.Marshal(keys)
	if err != nil {
		return nil, fmt.Errorf("objstore: encode batch: %w", err)
	}
	resp, err := s.postBatch(ctx, container, "exists", body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var present []bool
	if err := json.NewDecoder(resp.Body).Decode(&present); err != nil {
		return nil, fmt.Errorf("objstore: decode batch: %w", err)
	}
	if len(present) != len(keys) {
		return nil, fmt.Errorf("objstore: remote batch returned %d results for %d keys", len(present), len(keys))
	}
	return present, nil
}
