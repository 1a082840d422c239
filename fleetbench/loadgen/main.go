// Command loadgen runs one fleet benchmark workload end to end: it builds a
// seed's inputs, launches the production topology (a gateway over two
// WAL-backed shard leaders, each with a read replica) as real processes,
// drives it over loopback HTTP, checks every answer, and prints one JSON
// result line. It reaches the system under test only through the command
// binaries' flags and the HTTP API; internal/sim, internal/data and
// internal/core are used for input generation and training alone.
//
//	loadgen -workload care-reads -seed 1 -seconds 10 -trace 0 -bin DIR
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"nevermind/fleetbench/harness"
)

type metricSpec struct{ name, unit string }

// endToEnd lists the gated metrics every workload reports (see README.md
// for what each measures on each workload).
var endToEnd = []metricSpec{
	{"setup_s", "s"}, {"server_rss_mb", "MB"},
	{"ingest_lines_per_s", "lines/s"}, {"week_close_s", "s"}, {"ingest_ack_p50_ms", "ms"},
	{"read_slo_frac", "ratio"},
}

// ungated are the read latencies. Every run prints them and the traced run
// reports them, but they are not gated: on the shared two-core host their
// ten-run spread reaches 0.2-0.3 of the median, the largest bound a gate
// may use, and a p99 timed from due time is set by the few worst bulk-score
// or table-build stalls of a run (see README.md).
var ungated = []metricSpec{
	{"lookup_p50_ms", "ms"}, {"locate_p50_ms", "ms"}, {"rank_p50_ms", "ms"}, {"bulk_p50_ms", "ms"},
	{"lookup_p99_ms", "ms"}, {"locate_p99_ms", "ms"}, {"rank_p99_ms", "ms"},
}

// perLayer lists the traced run's metrics; the traced run also reports its
// own end-to-end metrics as traced.<name>.
var perLayer = []metricSpec{
	{"fleet.self_us.score", "us"}, {"fleet.self_us.rank", "us"}, {"fleet.self_us.locate", "us"}, {"fleet.self_us.ingest", "us"},
	{"fleet.legs_per_read", "count"}, {"fleet.inproc_us.bulk", "us"},
	{"fleet.replica_read_frac", "ratio"}, {"fleet.read_fallbacks", "count"}, {"fleet.shard_retries", "count"}, {"fleet.stale_rank_retries", "count"},
	{"replica.apply_us", "us"}, {"replica.fetch_ms", "ms"}, {"replica.lag_max_versions", "count"}, {"replica.bootstraps", "count"},
	{"serve.route_us.score", "us"}, {"serve.route_us.rank", "us"}, {"serve.route_us.locate", "us"},
	{"serve.parse_ns_per_example", "ns"}, {"serve.inproc_us.bulk", "us"}, {"net.rtt_us", "us"},
	{"serve.route_us.ingest", "us"}, {"serve.store_ingest_us", "us"}, {"serve.shard_contention", "count"}, {"serve.ingest_decode_ns_per_record", "ns"},
	{"serve.snapshot_builds.delta", "count"}, {"serve.snapshot_builds.full", "count"}, {"serve.snapshot_build_ms", "ms"}, {"serve.delta_apply_ms", "ms"},
	{"serve.table_builds", "count"}, {"serve.rows_scored_per_read", "count"},
	{"core.table_build_ms", "ms"}, {"ml.score_ns_per_row", "ns"}, {"core.locate_us", "us"}, {"core.locate_rows", "count"},
	{"wal.fsync_us", "us"}, {"wal.records", "count"}, {"wal.checkpoints", "count"}, {"wal.checkpoint_ms", "ms"},
	{"load.late_p99_ms", "ms"}, {"load.interactive_reads", "count"}, {"unaccounted_frac", "ratio"},
}

func numCPU() int { return runtime.NumCPU() }

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: "+strings.Join(workloads, ", "))
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 10, "measured window (weekly-cycle: one measured week per 1.25 s)")
		trace    = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		bin      = flag.String("bin", "", "directory holding the nevermindd and nevermindgw binaries")
		ladder   = flag.String("ladder", "", "ladder binary (traced runs)")
		work     = flag.String("work", ".bench_build/fleetbench", "scratch directory for inputs, WALs and logs")
	)
	flag.Parse()
	known := false
	for _, w := range workloads {
		known = known || w == *workload
	}
	if !known || *seconds <= 0 || *bin == "" || (*trace == 1 && *ladder == "") {
		fmt.Fprintf(os.Stderr, "loadgen: need -workload (%s), -seconds > 0, -bin, and -ladder with -trace 1\n", strings.Join(workloads, "|"))
		os.Exit(2)
	}
	// Interrupted: stop whatever part of the fleet is up, then exit.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-sigs
		cancel()
		if f := live.Load(); f != nil {
			f.stopStarted()
		}
		os.Exit(130)
	}()
	res, err := benchmark(ctx, *workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *bin, *ladder, *work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
	b, _ := json.Marshal(res)
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

func logf(format string, args ...any) { fmt.Printf(format+"\n", args...) }

func benchmark(ctx context.Context, workload string, seed uint64, window time.Duration, traced bool, bin, ladder, work string) (*result, error) {
	logf("env: nproc=%d GOMAXPROCS=%d go=%s commit=%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), os.Getenv("FLEETBENCH_COMMIT"))
	logf("run: workload=%s seed=%d population=%d seconds=%v trace=%v lines=%d read_rate=%v/s", workload, seed, population, window.Seconds(), traced, numLines, readRate)
	phase := time.Now()
	lap := func(name string) {
		logf("phase: %-8s %6.2fs", name, time.Since(phase).Seconds())
		phase = time.Now()
	}
	p, err := prepare(work, population, logf)
	if err != nil {
		return nil, err
	}
	histLo, histHi, _, feedHi := weekSpan(workload, window)
	chunks, err := feedWeeks(p.DS, histLo, max(histHi, feedHi), chunkLines)
	if err != nil {
		return nil, err
	}
	// The year is needed only to render the feed: drop it before anything is
	// timed, so the generator's own collector has a small heap to scan.
	p.DS = nil
	runtime.GC()
	lap("prepare")
	runDir := filepath.Join(work, "run")
	os.RemoveAll(runDir)
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	r := &run{ctx: ctx, workload: workload, seed: seed, window: window, p: p,
		setup: &recorder{}, win: &recorder{}, probe: &recorder{}, bulkBodies: map[int][]byte{}}
	if traced {
		r.tr = &tracer{t0: time.Now()}
		r.capture = &capture{}
	}
	defer func() {
		if r.fl != nil {
			r.fl.stop()
		}
	}()
	setupDur, err := r.setupFleet(bin, runDir, chunks)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	lap("setup")
	for _, pr := range r.fl.all() {
		logf("cmd: %s %s", filepath.Base(pr.cmd.Path), strings.Join(pr.args, " "))
	}
	reads := r.win
	if workload == "weekly-cycle" {
		r.quietProbe()
		reads = r.probe
		lap("probe")
	}
	var rtt float64
	var before map[string]harness.Scrape
	var lag *lagSampler
	if traced {
		if rtt, err = idleRTT(r.fl.leaders[0]); err != nil {
			return nil, err
		}
		if before, err = scrapeAll(r.fl); err != nil {
			return nil, err
		}
		lag = sampleLag(r.fl.replicas)
	}
	err = r.measure(chunks)
	var lagMax uint64
	if lag != nil {
		lagMax = lag.finish()
	}
	if err != nil {
		return nil, fmt.Errorf("window: %w (%s)", err, phaseErrs(r.win))
	}
	var after map[string]harness.Scrape
	if traced {
		if after, err = scrapeAll(r.fl); err != nil {
			return nil, err
		}
	}
	lap("window")
	r.verify(reads)
	lap("verify")
	rss := 0.0
	for _, pr := range r.fl.all() {
		v, err := pr.peakRSSMB()
		if err != nil {
			return nil, err
		}
		logf("rss: %-8s peak %.1f MB", pr.name, v)
		rss += v
	}
	fl := r.fl
	fl.stop()
	r.fl = nil
	lap("teardown")
	for _, c := range append(r.conns, r.ctl) {
		c.close()
	}

	e2e := r.endToEnd(setupDur.Seconds(), rss, reads)
	res := &result{Metrics: map[string]value{}}
	for _, rec := range []*recorder{r.setup, r.win, r.probe} {
		res.Attempted += rec.attempted
		res.Failed += rec.failed
	}
	wrong := r.setup.wrong + r.win.wrong + r.probe.wrong
	res.Correct = wrong == 0
	r.report(e2e, reads)
	if res.Failed > 0 {
		logf("FAILURES: setup [%s] window [%s] probe [%s]", phaseErrs(r.setup), phaseErrs(r.win), phaseErrs(r.probe))
	}
	if !traced {
		for _, s := range endToEnd {
			res.Metrics[s.name] = value{e2e[s.name], s.unit}
		}
		return res, nil
	}

	lm := layerMetrics(before, after, fl)
	lm["fleet.stale_rank_retries"] = float64(r.stale.Load())
	lm["replica.lag_max_versions"] = math.Max(lm["replica.lag_max_versions"], float64(lagMax))
	lm["net.rtt_us"] = rtt
	lm["load.late_p99_ms"] = nanTo(harness.Percentile(r.win.lateMs, 99), 0)
	lm["load.interactive_reads"] = float64(len(r.win.lat[harness.Lookup1]) + len(r.win.lat[harness.Lookup100]) +
		len(r.win.lat[harness.Rank]) + len(r.win.lat[harness.Locate]))
	lm["unaccounted_frac"] = unaccounted(r.tr.spans, lm, rtt)
	path, err := writeSpans(filepath.Join(work, "trace"), workload, seed, r.tr.spans)
	if err != nil {
		return nil, err
	}
	logf("trace: %d spans written to %s", len(r.tr.spans), path)
	manifest, err := r.capture.write(filepath.Join(work, "capture"), p, int(r.latest.Load()))
	if err != nil {
		return nil, err
	}
	lad, err := runLadder(ladder, manifest)
	if err != nil {
		return nil, err
	}
	lap("ladder")
	for k, v := range lad {
		lm[k] = v
	}
	tableBuilds(lm)
	for _, s := range perLayer {
		v, ok := lm[s.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s missing", s.name)
		}
		res.Metrics[s.name] = value{v, s.unit}
	}
	for _, s := range append(append([]metricSpec(nil), endToEnd...), ungated...) {
		res.Metrics["traced."+s.name] = value{e2e[s.name], s.unit}
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		logf("layer: %-36s %14.4f %s", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	return res, nil
}
