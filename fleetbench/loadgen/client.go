package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"nevermind/internal/data"
)

// conn is one generator connection: an HTTP client pinned to a single
// keep-alive TCP connection, so "two connections" means exactly two.
type conn struct {
	base string
	c    *http.Client
}

func newConn(base string) *conn {
	return &conn{base: base, c: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}, Timeout: 60 * time.Second}}
}

func (c *conn) close() { c.c.CloseIdleConnections() }

// do sends one request and reads the whole answer.
func (c *conn) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// getJSON fetches path and decodes a 200 answer into v.
func (c *conn) getJSON(path string, v any) error {
	st, b, err := c.do(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if st != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, st, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, v)
}

// Wire records of /v1/ingest, with the daemon's JSON field names.
type testRec struct {
	Line    data.LineID `json:"line"`
	Week    int         `json:"week"`
	Missing bool        `json:"missing,omitempty"`
	F       []float32   `json:"f,omitempty"`
	Profile uint8       `json:"profile,omitempty"`
	DSLAM   int32       `json:"dslam,omitempty"`
	Usage   float32     `json:"usage,omitempty"`
}

type ticketRec struct {
	ID       int         `json:"id"`
	Line     data.LineID `json:"line"`
	Day      int         `json:"day"`
	Category uint8       `json:"category"`
}

type ingestReq struct {
	Tests   []testRec   `json:"tests"`
	Tickets []ticketRec `json:"tickets"`
}

type ingestAck struct {
	IngestedTests   int    `json:"ingested_tests"`
	IngestedTickets int    `json:"ingested_tickets"`
	Version         uint64 `json:"version"`
}

// chunk is one /v1/ingest body of the feed.
type chunk struct {
	tests, tickets int
	body           []byte
}

// chunkLines is the collectors' chunk size in test records.
const chunkLines = 1000

// weekChunks renders one week of the feed: every ticket that arrived after
// fromDay up to the week's Saturday, and the week's line tests for the
// whole population in chunks of size records. The tickets travel in a chunk
// of their own ahead of the tests.
func weekChunks(ds *data.Dataset, week, fromDay, size int) ([]chunk, error) {
	var out []chunk
	var tk []ticketRec
	sat := data.SaturdayOf(week)
	for _, t := range ds.Tickets {
		if t.Day > fromDay && t.Day <= sat {
			tk = append(tk, ticketRec{ID: t.ID, Line: t.Line, Day: t.Day, Category: uint8(t.Category)})
		}
	}
	if len(tk) > 0 {
		b, err := json.Marshal(ingestReq{Tests: []testRec{}, Tickets: tk})
		if err != nil {
			return nil, err
		}
		out = append(out, chunk{tickets: len(tk), body: b})
		tk = nil
	}
	for lo := 0; lo < ds.NumLines; lo += size {
		hi := min(lo+size, ds.NumLines)
		recs := make([]testRec, 0, hi-lo)
		for l := lo; l < hi; l++ {
			m := ds.At(data.LineID(l), week)
			recs = append(recs, testRec{Line: data.LineID(l), Week: week, Missing: m.Missing, F: m.F[:],
				Profile: ds.ProfileOf[l], DSLAM: ds.DSLAMOf[l], Usage: ds.UsageOf[l]})
		}
		b, err := json.Marshal(ingestReq{Tests: recs, Tickets: []ticketRec{}})
		if err != nil {
			return nil, err
		}
		out = append(out, chunk{tests: len(recs), body: b})
	}
	return out, nil
}

// feedWeeks renders weeks lo..hi in chunks of size records. The first
// week's tickets carry the whole ticket history before it, as a feed
// joining mid-year would; each later week carries the tickets that arrived
// since the week before.
func feedWeeks(ds *data.Dataset, lo, hi, size int) (map[int][]chunk, error) {
	out := make(map[int][]chunk, hi-lo+1)
	from := -1
	for w := lo; w <= hi; w++ {
		cs, err := weekChunks(ds, w, from, size)
		if err != nil {
			return nil, err
		}
		out[w] = cs
		from = data.SaturdayOf(w)
	}
	return out, nil
}

// scoreBody renders a /v1/score request for lines at week.
func scoreBody(lines []int32, week int) []byte {
	b := make([]byte, 0, 16+len(lines)*28)
	b = append(b, `{"examples":[`...)
	for i, l := range lines {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"line":`...)
		b = strconv.AppendInt(b, int64(l), 10)
		b = append(b, `,"week":`...)
		b = strconv.AppendInt(b, int64(week), 10)
		b = append(b, '}')
	}
	return append(b, `]}`...)
}

func bulkBody(n, week int) []byte {
	lines := make([]int32, n)
	for i := range lines {
		lines[i] = int32(i)
	}
	return scoreBody(lines, week)
}

func locateBody(line int32, week int) []byte {
	return []byte(`{"line":` + strconv.Itoa(int(line)) + `,"week":` + strconv.Itoa(week) + `}`)
}

func rankPath(week, n int) string {
	return "/v1/rank?week=" + strconv.Itoa(week) + "&n=" + strconv.Itoa(n)
}
