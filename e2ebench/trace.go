package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/ledger"
	"ledgerdb/internal/replica"
	"ledgerdb/internal/streamfs"
)

// spanHeader carries a request identifier from the client's round
// tripper to the server's handler wrapper, so the two processes' spans
// of one HTTP exchange can be joined.
const spanHeader = "X-Bench-Span"

// span is one timed call across a layer boundary. Times are wall-clock
// Unix nanoseconds: the load generator and the host run on one machine
// and share the clock.
type span struct {
	Kind  string `json:"k"`           // layer.operation, e.g. "fs.sync"
	Tag   string `json:"t,omitempty"` // stream name or route detail
	ID    uint64 `json:"i,omitempty"` // request id joining client and handler spans
	Start int64  `json:"s"`
	End   int64  `json:"e"`
	N     int64  `json:"n,omitempty"` // bytes, records, or HTTP status
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the process writes them out.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readSpans(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []span
	dec := json.NewDecoder(bufio.NewReader(f))
	for {
		var s span
		if err := dec.Decode(&s); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("read spans %s: %w", path, err)
		}
		out = append(out, s)
	}
}

func now() int64 { return time.Now().UnixNano() }

// ---- client side -------------------------------------------------------

// callerTransport is one caller's http.RoundTripper. It always sums the
// time its round trips take (the client-side check time of an operation
// is its duration minus that sum); with a recorder it also records a
// span per exchange and tags the request for the server-side join. A
// round trip ends when the response body is closed.
type callerTransport struct {
	base   http.RoundTripper
	rec    *recorder // nil: untraced
	nextID func() uint64
	rtNs   atomic.Int64
}

func (t *callerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	var id uint64
	if t.rec != nil {
		id = t.nextID()
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.FormatUint(id, 16))
	}
	start := now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.finish(id, req.URL.Path, start, 0)
		return nil, err
	}
	resp.Body = &rtBody{ReadCloser: resp.Body, done: func() { t.finish(id, req.URL.Path, start, resp.StatusCode) }}
	return resp, nil
}

func (t *callerTransport) finish(id uint64, path string, start int64, status int) {
	end := now()
	t.rtNs.Add(end - start)
	if t.rec != nil {
		t.rec.add(span{Kind: "client.roundtrip", Tag: route(path), ID: id, Start: start, End: end, N: int64(status)})
	}
}

// take returns and resets the round-trip time summed since the last take.
func (t *callerTransport) take() int64 { return t.rtNs.Swap(0) }

type rtBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *rtBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// ---- server side -------------------------------------------------------

// route names the server operation a request path addresses.
func route(path string) string {
	switch {
	case path == "/v1/append":
		return "append"
	case strings.HasPrefix(path, "/v1/proof/"):
		return "proof"
	case path == "/v1/query":
		return "query"
	case path == "/v1/replica/pull":
		return "pull"
	case path == "/v1/state":
		return "state"
	}
	return "other"
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// traceHandler records one span per request served, keyed by the id the
// client's transport put in spanHeader (0 for untagged callers such as
// the follower).
func traceHandler(next http.Handler, rec *recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _ := strconv.ParseUint(r.Header.Get(spanHeader), 16, 64) // absent header: id 0
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := now()
		next.ServeHTTP(sw, r)
		rec.add(span{Kind: "server." + route(r.URL.Path), ID: id, Start: start, End: now(), N: int64(sw.code)})
	})
}

// ---- streamfs ----------------------------------------------------------

// traceFS wraps a streamfs.FileSystem and attributes file I/O to the
// stream a segment file belongs to (`<stream>.seg.N`), or to label when
// one is set (the index's own store).
type traceFS struct {
	streamfs.FileSystem
	rec   *recorder
	label string
}

func (f traceFS) tag(path string) string {
	if f.label != "" {
		return f.label
	}
	base := filepath.Base(path)
	if i := strings.IndexByte(base, '.'); i > 0 {
		return base[:i]
	}
	return base
}

func (f traceFS) wrap(path string, file streamfs.File, err error) (streamfs.File, error) {
	if err != nil {
		return nil, err
	}
	return traceFile{File: file, rec: f.rec, tag: f.tag(path)}, nil
}

func (f traceFS) Create(path string) (streamfs.File, error) {
	file, err := f.FileSystem.Create(path)
	return f.wrap(path, file, err)
}

func (f traceFS) OpenAppend(path string) (streamfs.File, error) {
	file, err := f.FileSystem.OpenAppend(path)
	return f.wrap(path, file, err)
}

func (f traceFS) OpenRead(path string) (streamfs.File, error) {
	file, err := f.FileSystem.OpenRead(path)
	return f.wrap(path, file, err)
}

func (f traceFS) WriteFile(path string, data []byte) error {
	start := now()
	err := f.FileSystem.WriteFile(path, data)
	f.rec.add(span{Kind: "fs.writefile", Tag: f.tag(path), Start: start, End: now(), N: int64(len(data))})
	return err
}

type traceFile struct {
	streamfs.File
	rec *recorder
	tag string
}

func (f traceFile) Write(p []byte) (int, error) {
	start := now()
	n, err := f.File.Write(p)
	f.rec.add(span{Kind: "fs.write", Tag: f.tag, Start: start, End: now(), N: int64(n)})
	return n, err
}

func (f traceFile) ReadAt(p []byte, off int64) (int, error) {
	start := now()
	n, err := f.File.ReadAt(p, off)
	f.rec.add(span{Kind: "fs.read", Tag: f.tag, Start: start, End: now(), N: int64(n)})
	return n, err
}

func (f traceFile) Sync() error {
	start := now()
	err := f.File.Sync()
	f.rec.add(span{Kind: "fs.sync", Tag: f.tag, Start: start, End: now()})
	return err
}

// traceBlobs wraps the payload blob store.
type traceBlobs struct {
	streamfs.BlobStore
	rec *recorder
}

func (b traceBlobs) Put(key hashutil.Digest, data []byte) error {
	start := now()
	err := b.BlobStore.Put(key, data)
	b.rec.add(span{Kind: "blob.put", Tag: "blobs", Start: start, End: now(), N: int64(len(data))})
	return err
}

func (b traceBlobs) Get(key hashutil.Digest) ([]byte, error) {
	start := now()
	data, err := b.BlobStore.Get(key)
	b.rec.add(span{Kind: "blob.get", Tag: "blobs", Start: start, End: now(), N: int64(len(data))})
	return data, err
}

// ---- replica -----------------------------------------------------------

// traceSource wraps the follower's replica.Source. A pull span carries
// the number of records the sealed frame delivered.
type traceSource struct {
	replica.Source
	rec *recorder
}

func (s traceSource) PullFrame(ctx context.Context, stream string, from uint64, max int) ([]byte, error) {
	start := now()
	raw, err := s.Source.PullFrame(ctx, stream, from, max)
	end := now()
	var n int64
	if err == nil {
		if f, derr := replica.DecodeSegmentFrame(raw); derr == nil {
			n = int64(len(f.Records))
		}
	}
	s.rec.add(span{Kind: "replica.pull", Tag: stream, Start: start, End: end, N: n})
	return raw, err
}

func (s traceSource) State(ctx context.Context) (*ledger.SignedState, error) {
	start := now()
	st, err := s.Source.State(ctx)
	s.rec.add(span{Kind: "replica.state", Start: start, End: now()})
	return st, err
}
