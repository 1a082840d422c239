package main

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"nevermind/fleetbench/harness"
)

// Workload shape. The numbers are fixed here, not flags, so two runs of the
// same commit and seed always do the same work.
const (
	histWeeks = 4 // history weeks weekly-cycle's setup ingests
	// care-reads ingests more history: its setup's weeks are the sample its
	// ingest metrics are taken over. Each week is about 21 versions per
	// shard, so 10 weeks stay under the leaders' default checkpoint distance
	// (256 versions): no full-state checkpoint is written in the background
	// while the read window runs.
	careHistWeeks = 10
	// weekly-cycle: history 10-13, then weeks from 14 on. The number of
	// measured weeks is fixed by --seconds alone (one week per weekBudget,
	// at most up to week 51), never by how fast the commit runs, so every
	// commit ingests the same weeks before its peak RSS is read.
	cycleFirst = 14
	lastWeek   = 51
	weekBudget = 1250 * time.Millisecond
	// readRate is care-reads' offered rate of interactive reads. Lookup p99
	// first passes the 50 ms limit near 1,100/s in the host's fast phases;
	// slow phases cut capacity by up to a third, and 550/s then tipped into
	// a backlog that never drained. 400/s stays under half the knee in
	// every phase.
	readRate  = 400.0
	bulkEvery = time.Second
	// probeN is the quiet read probe's samples per class (weekly-cycle):
	// enough for a supported p99.
	probeN     = 1000
	probeBulks = 20
	rankN      = 100
)

var workloads = []string{"weekly-cycle", "care-reads"}

// weekSpan returns the history weeks and the measured feed weeks of a
// workload with a window of the given length.
func weekSpan(workload string, window time.Duration) (histLo, histHi, feedLo, feedHi int) {
	if workload == "weekly-cycle" {
		n := min(max(int(window/weekBudget), 1), lastWeek-cycleFirst+1)
		return cycleFirst - histWeeks, cycleFirst - 1, cycleFirst, cycleFirst + n - 1
	}
	// care-reads: no feed in the window
	return lastWeek - careHistWeeks + 1, lastWeek, 0, -1
}

// setupFleet launches the fleet and brings it to the workload's starting
// state: the history weeks ingested through the gateway and a warm read
// answered. It returns the set-up time.
func (r *run) setupFleet(bin, runDir string, chunks map[int][]chunk) (time.Duration, error) {
	histLo, histHi, _, _ := weekSpan(r.workload, r.window)
	t0 := time.Now()
	fl, err := launchFleet(r.ctx, bin, runDir, r.seed, r.p)
	if err != nil {
		return 0, err
	}
	r.fl = fl
	for range min(2, numCPU()) {
		r.conns = append(r.conns, newConn(fl.gw.url()))
	}
	r.ctl = newConn(fl.gw.url())
	if err := r.waitReplicasUp(); err != nil {
		return 0, err
	}
	for w := histLo; w <= histHi; w++ {
		ws, err := r.closedWeek("setup", r.setup, w, chunks[w])
		if err != nil {
			return 0, fmt.Errorf("history week %d: %w", w, err)
		}
		r.hist = append(r.hist, ws)
	}
	r.latest.Store(int64(histHi))
	if err := r.waitReplicasCaughtUp(); err != nil {
		return 0, err
	}
	// Warm read: reads that build every score table the window will read,
	// so a read-only window builds none.
	warmWeeks := []int{histHi}
	if r.workload != "weekly-cycle" {
		warmWeeks = []int{histHi - 3, histHi - 2, histHi - 1, histHi}
	}
	for _, w := range warmWeeks {
		st, b, err := r.ctl.do(http.MethodPost, "/v1/score", r.bulk(w))
		if err == nil && st != http.StatusOK {
			err = fmt.Errorf("status %d: %s", st, b)
		}
		if err != nil {
			return 0, fmt.Errorf("warm read week %d: %w", w, err)
		}
	}
	return time.Since(t0), nil
}

// waitReplicasUp waits until the gateway routes reads to both replicas.
func (r *run) waitReplicasUp() error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		s, err := scrape(r.ctl, "/metrics")
		if err == nil && s.Get("fleet_replica_up", "replica", "s0-r0") == 1 && s.Get("fleet_replica_up", "replica", "s1-r0") == 1 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gateway never marked both replicas up (%v)", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// waitReplicasCaughtUp waits until both replicas report zero lag.
func (r *run) waitReplicasCaughtUp() error {
	deadline := time.Now().Add(60 * time.Second)
	for _, p := range r.fl.replicas {
		c := newConn(p.url())
		for {
			var h struct {
				Lag uint64 `json:"replica_lag"`
			}
			err := c.getJSON("/healthz", &h)
			if err == nil && h.Lag == 0 {
				break
			}
			if time.Now().After(deadline) {
				c.close()
				return fmt.Errorf("replica %s did not catch up (lag %d, %v)", p.name, h.Lag, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
		c.close()
	}
	return nil
}

// bulk returns the full-population score body for a week.
func (r *run) bulk(week int) []byte {
	r.bulkMu.Lock()
	defer r.bulkMu.Unlock()
	if b, ok := r.bulkBodies[week]; ok {
		return b
	}
	b := bulkBody(numLines, week)
	r.bulkBodies[week] = b
	return b
}

// measure runs the workload's measured window.
func (r *run) measure(chunks map[int][]chunk) error {
	if r.workload == "care-reads" {
		r.openLoop("window", harness.Schedule(r.seed, r.workload, harness.Mix{
			Rate: readRate, Window: r.window, Lines: numLines, BulkEvery: bulkEvery}))
		return nil
	}
	_, _, feedLo, feedHi := weekSpan(r.workload, r.window)
	for w := feedLo; w <= feedHi; w++ {
		ws, err := r.closedWeek("window", r.win, w, chunks[w])
		if err != nil {
			return fmt.Errorf("week %d: %w", w, err)
		}
		r.weeks = append(r.weeks, ws)
	}
	return nil
}

// quietProbe is weekly-cycle's read measurement, taken on the quiet fleet
// between setup and the window, so the window itself sends no interactive
// read: a fixed count of each class, interleaved, closed loop over the
// generator's connections.
func (r *run) quietProbe() {
	ops := harness.Schedule(r.seed, r.workload+"/probe", harness.Mix{
		Rate: 1000, Window: 60 * time.Second, Lines: numLines})
	want := map[harness.Class]int{harness.Lookup1: probeN * 4 / 5, harness.Lookup100: probeN / 5,
		harness.Rank: probeN, harness.Locate: probeN}
	var picked []harness.Op
	for _, op := range ops {
		if want[op.Class] > 0 {
			want[op.Class]--
			picked = append(picked, op)
		}
	}
	// Spread the bulk scores evenly through the probe.
	step := len(picked)/probeBulks + 1
	var seq []harness.Op
	for i, op := range picked {
		if i%step == 0 {
			seq = append(seq, harness.Op{Class: harness.Bulk})
		}
		seq = append(seq, op)
	}
	picked = seq
	var next sync.Mutex
	i := 0
	var wg sync.WaitGroup
	for _, c := range r.conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for {
				next.Lock()
				if i >= len(picked) {
					next.Unlock()
					return
				}
				op := picked[i]
				i++
				next.Unlock()
				r.sendRead(c, "probe", r.probe, &task{due: time.Now(), op: op, id: r.nextOp.Add(1)})
			}
		}(c)
	}
	wg.Wait()
}

// verify fetches each read week's reference scores (the whole population,
// once the window is over) and checks every kept answer against them.
func (r *run) verify(rec *recorder) {
	refs := map[int]*reference{}
	for _, rr := range rec.reads {
		if _, ok := refs[rr.week]; ok || !rr.ok {
			continue
		}
		st, b, err := r.ctl.do(http.MethodPost, "/v1/score", r.bulk(rr.week))
		if err == nil && st != http.StatusOK {
			err = fmt.Errorf("status %d", st)
		}
		var ref *reference
		if err == nil {
			ref, err = parseReference(b, rr.week, numLines)
		}
		if err != nil {
			rec.fail(true, "reference for week %d: %v", rr.week, err)
			refs[rr.week] = nil
			continue
		}
		refs[rr.week] = ref
	}
	everyLine := make([]int32, numLines)
	for i := range everyLine {
		everyLine[i] = int32(i)
	}
	for _, rr := range rec.reads {
		if !rr.ok {
			continue
		}
		ref := refs[rr.week]
		if ref == nil {
			rr.ok = false
			continue
		}
		var err error
		switch rr.class {
		case harness.Lookup1, harness.Lookup100:
			err = checkScore(rr.body, rr.lines, rr.week, ref)
		case harness.Bulk:
			err = checkScore(rr.body, everyLine, rr.week, ref)
		case harness.Rank:
			err = checkRank(rr.body, rr.week, rankN, numLines, ref)
		case harness.Locate:
			err = checkLocate(rr.body, rr.lines[0], rr.week, r.p.Dispositions)
		}
		if err != nil {
			rr.ok = false
			rec.fail(true, "%v week %d: %v", rr.class, rr.week, err)
		}
		rr.body = nil
	}
}

// sloFrac is the share of interactive reads answered correctly within the
// latency limit; failed and wrong answers count as misses.
func sloFrac(rec *recorder) (float64, int) {
	n, met := 0, 0
	for _, rr := range rec.reads {
		if !rr.class.Interactive() {
			continue
		}
		n++
		if rr.ok && rr.latMs <= sloMs {
			met++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return float64(met) / float64(n), n
}

func phaseErrs(rec *recorder) string { return strings.Join(rec.errs, "; ") }
