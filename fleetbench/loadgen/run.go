package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nevermind/fleetbench/harness"
)

// sloMs is the interactive latency limit.
const sloMs = 50.0

// span is one generator call into the fleet, recorded only in traced runs.
type span struct {
	ID     uint64 `json:"id"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func (t *tracer) add(name, parent string, op uint64, s, e time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: uint64(len(t.spans) + 1), Op: op, Name: name, Parent: parent,
		Start: s.Sub(t.t0).Nanoseconds(), End: e.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

// readRec is one read whose answer is checked after the window, when the
// reference scores are fetched.
type readRec struct {
	class harness.Class
	week  int
	lines []int32
	body  []byte
	latMs float64
	ok    bool // transport and status succeeded
}

// recorder collects one phase's samples.
type recorder struct {
	mu        sync.Mutex
	lat       [harness.NumClasses][]float64 // ms, timed from due (open loop) or send (closed loop)
	reads     []*readRec
	attempted int
	failed    int
	wrong     int
	lateMs    []float64
	errs      []string
}

func (r *recorder) fail(wrong bool, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if wrong {
		r.wrong++
	}
	if len(r.errs) < 8 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

func (r *recorder) sample(c harness.Class, ms float64) {
	r.mu.Lock()
	r.lat[c] = append(r.lat[c], ms)
	r.attempted++
	r.mu.Unlock()
}

func (r *recorder) addRead(rr *readRec) {
	r.mu.Lock()
	r.reads = append(r.reads, rr)
	r.mu.Unlock()
}

// pct returns a percentile over the given classes' samples.
func (r *recorder) pct(p float64, cs ...harness.Class) (float64, int) {
	var xs []float64
	for _, c := range cs {
		xs = append(xs, r.lat[c]...)
	}
	return harness.Percentile(xs, p), len(xs)
}

// run is one benchmark run: one workload, one seed, one fresh fleet.
type run struct {
	ctx      context.Context
	workload string
	seed     uint64
	window   time.Duration
	p        *prepared
	fl       *fleet
	conns    []*conn
	ctl      *conn
	tr       *tracer
	nextOp   atomic.Uint64

	setup  *recorder // history ingest in setup
	win    *recorder // the measured window
	probe  *recorder // weekly-cycle's quiet read probe before the window
	weeks  []weekStat
	hist   []weekStat
	stale  atomic.Int64 // week-close ranks answered before every replica had the week
	latest atomic.Int64 // latest week whose close rank has been confirmed

	bulkMu     sync.Mutex
	bulkBodies map[int][]byte
	capture    *capture
}

// call performs one request on c, recording a span in traced runs.
func (r *run) call(c *conn, phase, name string, op uint64, method, path string, body []byte) (int, []byte, error, time.Time, time.Time) {
	s := time.Now()
	st, b, err := c.do(method, path, body)
	e := time.Now()
	r.tr.add(name, phase, op, s, e)
	return st, b, err, s, e
}

type weekStat struct {
	week   int
	ingest time.Duration // first chunk sent until the last chunk acked
	close  time.Duration // first chunk sent until a rank holds the whole week
	lines  int
	stale  int
}

// closedWeek runs one week the way the Saturday collectors do: the ticket
// chunk, then the line-test chunks over every connection, each connection
// sending its next chunk only after the ack; once the last chunk is acked,
// the ops call rank until the answer holds the whole week.
func (r *run) closedWeek(phase string, rec *recorder, week int, chunks []chunk) (weekStat, error) {
	ws := weekStat{week: week}
	t0 := time.Now()
	send := func(c *conn, ch *chunk) error {
		op := r.nextOp.Add(1)
		st, b, err, s, e := r.call(c, phase, "chunk POST /v1/ingest", op, http.MethodPost, "/v1/ingest", ch.body)
		rec.sample(harness.Chunk, ms(e.Sub(s)))
		if err == nil && st != http.StatusOK {
			err = fmt.Errorf("status %d: %s", st, strings.TrimSpace(string(b)))
		}
		if err != nil {
			rec.fail(false, "week %d chunk: %v", week, err)
			return err
		}
		if err := checkAck(b, ch); err != nil {
			rec.fail(true, "week %d chunk: %v", week, err)
			return err
		}
		r.capture.chunk(ch)
		return nil
	}
	rest := chunks
	if len(rest) > 0 && rest[0].tests == 0 {
		if err := send(r.conns[0], &rest[0]); err != nil {
			return ws, err
		}
		rest = rest[1:]
	}
	var next atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	for _, c := range r.conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(rest) || firstErr.Load() != nil {
					return
				}
				if err := send(c, &rest[i]); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if err, _ := firstErr.Load().(error); err != nil {
		return ws, err
	}
	ws.ingest = time.Since(t0)
	for _, ch := range rest {
		ws.lines += ch.tests
	}
	stale, err := r.weekClose(r.conns[0], phase, rec, week, budgetN, 0)
	ws.stale = stale
	ws.close = time.Since(t0)
	return ws, err
}

// weekClose calls rank for the week until the answer reflects the whole
// week's population, counting answers that arrive before every replica has
// it. Each call is timed as a rank sample.
func (r *run) weekClose(c *conn, phase string, rec *recorder, week, n int, op uint64) (int, error) {
	if op == 0 {
		op = r.nextOp.Add(1)
	}
	deadline := time.Now().Add(30 * time.Second)
	for stale := 0; ; stale++ {
		st, b, err, s, e := r.call(c, phase, "close GET /v1/rank", op, http.MethodGet, rankPath(week, n), nil)
		if err == nil && st != http.StatusOK {
			err = fmt.Errorf("status %d: %s", st, strings.TrimSpace(string(b)))
		}
		rec.sample(harness.Close, ms(e.Sub(s)))
		if err != nil {
			rec.fail(false, "week %d close: %v", week, err)
			return stale, err
		}
		pop, err := rankPopulation(b)
		if err != nil {
			rec.fail(true, "week %d close: %v", week, err)
			return stale, err
		}
		if pop == numLines {
			if err := checkRank(b, week, n, numLines, nil); err != nil {
				rec.fail(true, "week %d close: %v", week, err)
				return stale, err
			}
			r.stale.Add(int64(stale))
			return stale, nil
		}
		if pop > numLines || time.Now().After(deadline) {
			err := fmt.Errorf("week %d close: population %d, want %d", week, pop, numLines)
			rec.fail(true, "%v", err)
			return stale, err
		}
		time.Sleep(time.Millisecond)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// summary statistics --------------------------------------------------------

func median(xs []float64) float64 { return harness.Median(append([]float64(nil), xs...)) }

func nanTo(v, alt float64) float64 {
	if math.IsNaN(v) {
		return alt
	}
	return v
}
