package main

import (
	"fmt"

	"nevermind/fleetbench/harness"
)

// endToEnd computes every end-to-end metric, gated or not. Ingest metrics
// come from the measured weeks (weekly-cycle) or from the history weeks its
// setup ingests (care-reads, whose window has no writes). Read metrics come
// from the window (care-reads) or from weekly-cycle's quiet probe before its
// window.
func (r *run) endToEnd(setupS, rssMB float64, reads *recorder) map[string]float64 {
	m := map[string]float64{"setup_s": setupS, "server_rss_mb": rssMB}
	weeks, acks := r.weeks, r.win
	if r.workload == "care-reads" {
		weeks, acks = r.hist, r.setup
	}
	var lines, secs float64
	var closes []float64
	for _, w := range weeks {
		lines += float64(w.lines)
		secs += w.ingest.Seconds()
		closes = append(closes, w.close.Seconds())
	}
	m["ingest_lines_per_s"] = ratio(lines, secs)
	m["week_close_s"] = median(closes)
	m["ingest_ack_p50_ms"], _ = acks.pct(50, harness.Chunk)
	m["lookup_p50_ms"], _ = reads.pct(50, harness.Lookup1, harness.Lookup100)
	m["lookup_p99_ms"], _ = reads.pct(99, harness.Lookup1, harness.Lookup100)
	m["locate_p50_ms"], _ = reads.pct(50, harness.Locate)
	m["locate_p99_ms"], _ = reads.pct(99, harness.Locate)
	m["rank_p50_ms"], _ = reads.pct(50, harness.Rank)
	m["rank_p99_ms"], _ = reads.pct(99, harness.Rank)
	m["bulk_p50_ms"], _ = reads.pct(50, harness.Bulk)
	m["read_slo_frac"], _ = sloFrac(reads)
	for k, v := range m {
		m[k] = nanTo(v, 0)
	}
	return m
}

// report prints the human-readable part of the run: per-class sample
// counts with the highest percentile each count supports, generator
// lateness, and every end-to-end metric.
func (r *run) report(e2e map[string]float64, reads *recorder) {
	for _, ph := range []struct {
		name string
		rec  *recorder
	}{{"setup", r.setup}, {"window", r.win}, {"probe", r.probe}} {
		for c := harness.Class(0); c < harness.NumClasses; c++ {
			xs := ph.rec.lat[c]
			if len(xs) == 0 {
				continue
			}
			top, ok := harness.HighestSupported(len(xs))
			tail := "none"
			if ok {
				tail = fmt.Sprint(top)
			}
			p99 := "unsupported"
			if harness.Supported(len(xs), 99) {
				p99 = fmt.Sprint(harness.Percentile(append([]float64(nil), xs...), 99)) + "ms"
			}
			logf("samples: %-6s %-9s n=%-6d p50=%.3fms p99=%s highest-supported=p%s",
				ph.name, c, len(xs), harness.Percentile(append([]float64(nil), xs...), 50), p99, tail)
		}
	}
	_, n := sloFrac(reads)
	logf("samples: interactive reads checked against the %vms limit: %d", sloMs, n)
	if len(r.win.lateMs) > 0 {
		late := harness.Percentile(append([]float64(nil), r.win.lateMs...), 99)
		logf("load: generator lateness p99 %.3fms over %d dispatches", late, len(r.win.lateMs))
		if late > 5 {
			logf("FLAG: the open-loop generator fell behind its schedule (late p99 %.1fms > 5ms); latencies still count from due time", late)
		}
	}
	for _, ws := range append(append([]weekStat(nil), r.hist...), r.weeks...) {
		logf("week: %2d ingest=%.3fs close=%.3fs lines=%d stale=%d", ws.week, ws.ingest.Seconds(), ws.close.Seconds(), ws.lines, ws.stale)
	}
	logf("load: stale week-close ranks retried: %d", r.stale.Load())
	attempted, failed := 0, 0
	for _, rec := range []*recorder{r.setup, r.win, r.probe} {
		attempted += rec.attempted
		failed += rec.failed
	}
	logf("ops: attempted=%d failed=%d fail_frac=%.6f", attempted, failed, ratio(float64(failed), float64(attempted)))
	for _, s := range endToEnd {
		logf("metric: %-20s %12.4f %s", s.name, e2e[s.name], s.unit)
	}
	for _, s := range ungated {
		logf("read:   %-20s %12.4f %s (not gated)", s.name, e2e[s.name], s.unit)
	}
}
