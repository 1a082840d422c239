package main

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"nevermind/fleetbench/harness"
)

// task is one queued read. Latency is timed from due.
type task struct {
	due time.Time
	op  harness.Op
	id  uint64
}

// openLoop dispatches ops at their due times to the generator's
// connections, one in flight per connection, first come first served, and
// waits until every op has finished.
func (r *run) openLoop(phase string, ops []harness.Op) {
	rec := r.win
	q := make(chan *task, len(ops))
	var wg sync.WaitGroup
	for _, c := range r.conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for t := range q {
				r.sendRead(c, phase, rec, t)
			}
		}(c)
	}
	start := time.Now().Add(20 * time.Millisecond)
	for _, op := range ops {
		due := start.Add(op.Due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		rec.mu.Lock()
		rec.lateMs = append(rec.lateMs, ms(time.Since(due)))
		rec.mu.Unlock()
		q <- &task{due: due, op: op, id: r.nextOp.Add(1)}
	}
	close(q)
	wg.Wait()
}

// sendRead performs one read and keeps its answer for the check after the
// window.
func (r *run) sendRead(c *conn, phase string, rec *recorder, t *task) {
	latest := int(r.latest.Load())
	week := latest - t.op.WeekBack
	var method, path string
	var body []byte
	lines := t.op.Lines
	switch t.op.Class {
	case harness.Lookup1, harness.Lookup100:
		method, path, body = http.MethodPost, "/v1/score", scoreBody(lines, week)
	case harness.Bulk:
		method, path, body = http.MethodPost, "/v1/score", r.bulk(week)
	case harness.Rank:
		method, path = http.MethodGet, rankPath(week, 100)
	case harness.Locate:
		method, path, body = http.MethodPost, "/v1/locate", locateBody(lines[0], week)
	}
	st, b, err, _, e := r.call(c, phase, t.op.Class.String()+" "+method+" "+path[:strings.IndexAny(path+"?", "?")], t.id, method, path, body)
	lat := ms(e.Sub(t.due))
	rec.sample(t.op.Class, lat)
	rr := &readRec{class: t.op.Class, week: week, lines: lines, body: b, latMs: lat, ok: err == nil && st == http.StatusOK}
	if !rr.ok {
		if err == nil {
			err = fmt.Errorf("status %d: %s", st, strings.TrimSpace(string(b)))
		}
		rec.fail(false, "%v week %d: %v", t.op.Class, week, err)
	}
	r.capture.read(rr, body)
	rec.addRead(rr)
}
