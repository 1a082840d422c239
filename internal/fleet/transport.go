package fleet

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
)

// HandlerTransport adapts an http.Handler into an http.RoundTripper: the
// request is served in-process, no sockets involved. The benchmarks and
// fuzz harnesses use it to splice whole shard daemons into a gateway so the
// measurement (or the byte-equality check) excludes the TCP stack.
type HandlerTransport struct {
	H http.Handler
}

// HostTransport routes in-process requests to handlers by URL host — the
// multi-shard counterpart of HandlerTransport. A gateway configured with
// shard URLs like "http://shard-0" and a HostTransport mapping each host to
// that shard's serve handler runs a whole fleet in one process.
type HostTransport map[string]http.Handler

// RoundTrip dispatches to the handler registered for the request's host.
func (t HostTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := t[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("fleet: no in-process handler for host %q", req.URL.Host)
	}
	return HandlerTransport{h}.RoundTrip(req)
}

// respRecorder is the minimal in-process ResponseWriter behind
// HandlerTransport (the stdlib's recorder lives in a test-only package).
type respRecorder struct {
	header http.Header
	code   int
	wrote  bool
	buf    bytes.Buffer
}

func (r *respRecorder) Header() http.Header { return r.header }

func (r *respRecorder) WriteHeader(code int) {
	if !r.wrote {
		r.code = code
		r.wrote = true
	}
}

func (r *respRecorder) Write(b []byte) (int, error) {
	if !r.wrote {
		r.WriteHeader(http.StatusOK)
	}
	return r.buf.Write(b)
}

// RoundTrip serves req against the wrapped handler and packages the reply as
// a client-side *http.Response.
func (t HandlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := &respRecorder{header: make(http.Header), code: http.StatusOK}
	t.H.ServeHTTP(rec, req)
	if req.Body != nil {
		io.Copy(io.Discard, req.Body)
		req.Body.Close()
	}
	return &http.Response{
		Status:        fmt.Sprintf("%d %s", rec.code, http.StatusText(rec.code)),
		StatusCode:    rec.code,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        rec.header,
		Body:          io.NopCloser(bytes.NewReader(rec.buf.Bytes())),
		ContentLength: int64(rec.buf.Len()),
		Request:       req,
	}, nil
}
