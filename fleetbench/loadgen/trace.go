package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"nevermind/fleetbench/harness"
)

func scrape(c *conn, path string) (harness.Scrape, error) {
	st, b, err := c.do(http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	if st != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, st)
	}
	return harness.ParseMetrics(string(b))
}

// scrapeAll reads /metrics from every process of the fleet, keyed by
// process name.
func scrapeAll(fl *fleet) (map[string]harness.Scrape, error) {
	out := map[string]harness.Scrape{}
	for _, p := range fl.all() {
		c := newConn(p.url())
		s, err := scrape(c, "/metrics")
		c.close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		out[p.name] = s
	}
	return out, nil
}

// idleRTT times idle GET /healthz round trips to a shard leader and returns
// the median in microseconds.
func idleRTT(p *proc) (float64, error) {
	c := newConn(p.url())
	defer c.close()
	var xs []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		st, _, err := c.do(http.MethodGet, "/healthz", nil)
		if err != nil || st != http.StatusOK {
			return 0, fmt.Errorf("healthz: status %d: %v", st, err)
		}
		if i >= 20 {
			xs = append(xs, float64(time.Since(t0).Microseconds()))
		}
	}
	return harness.Median(xs), nil
}

var readRoutes = []string{"score", "rank", "locate"}

// lagSampler polls the replicas' /healthz during a traced window and keeps
// the largest replication lag seen; /metrics scrapes before and after the
// window would only see the settled state.
type lagSampler struct {
	stop chan struct{}
	done chan struct{}
	max  uint64
}

func sampleLag(replicas []*proc) *lagSampler {
	s := &lagSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		var cs []*conn
		for _, p := range replicas {
			cs = append(cs, newConn(p.url()))
		}
		defer func() {
			for _, c := range cs {
				c.close()
			}
		}()
		t := time.NewTicker(200 * time.Millisecond)
		defer t.Stop()
		for {
			for _, c := range cs {
				var h struct {
					Lag uint64 `json:"replica_lag"`
				}
				if c.getJSON("/healthz", &h) == nil && h.Lag > s.max {
					s.max = h.Lag
				}
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *lagSampler) finish() uint64 {
	close(s.stop)
	<-s.done
	return s.max
}

// layerMetrics turns the /metrics deltas over the measured window into the
// per-layer numbers. Leaders and replicas are merged: a route's mean is over
// every daemon that served it.
func layerMetrics(before, after map[string]harness.Scrape, fl *fleet) map[string]float64 {
	delta := func(names ...string) harness.Scrape {
		var ds []harness.Scrape
		for _, n := range names {
			ds = append(ds, harness.Delta(before[n], after[n]))
		}
		return harness.Merge(ds...)
	}
	var leaders, replicas []string
	for _, p := range fl.leaders {
		leaders = append(leaders, p.name)
	}
	for _, p := range fl.replicas {
		replicas = append(replicas, p.name)
	}
	gw := delta(fl.gw.name)
	ld := delta(leaders...)
	rd := delta(replicas...)
	dd := harness.Merge(ld, rd)
	m := map[string]float64{}

	const gwLat, dLat = "fleet_http_request_duration_seconds", "nevermind_http_request_duration_seconds"
	for _, route := range append(append([]string(nil), readRoutes...), "ingest") {
		g := gw.Hist(gwLat, "route", route)
		d := dd.Hist(dLat, "route", route)
		self := 0.0
		if g.Count > 0 {
			self = (g.Mean() - d.Mean()) * 1e6
		}
		m["fleet.self_us."+route] = self
		m["serve.route_us."+route] = d.Mean() * 1e6
	}
	var gwReads, legs, leaderLegs float64
	for _, route := range readRoutes {
		gwReads += gw.Get("fleet_http_requests_total", "route", route)
		legs += dd.Get("nevermind_http_requests_total", "route", route)
		leaderLegs += ld.Get("nevermind_http_requests_total", "route", route)
	}
	m["fleet.legs_per_read"] = ratio(legs, gwReads)
	replicaReads := gw.SumAll("fleet_replica_reads_total")
	m["fleet.replica_read_frac"] = ratio(replicaReads, replicaReads+leaderLegs)
	m["fleet.read_fallbacks"] = gw.Get("fleet_read_fallbacks_total", "", "")
	m["fleet.shard_retries"] = gw.SumAll("fleet_shard_retries_total")

	m["replica.apply_us"] = rd.Hist("nevermind_replica_apply_duration_seconds", "", "").Mean() * 1e6
	m["replica.fetch_ms"] = rd.Hist("nevermind_replica_fetch_duration_seconds", "", "").Mean() * 1e3
	lag := math.Max(after[fl.gw.name].MaxAll("fleet_replica_lag_versions"), before[fl.gw.name].MaxAll("fleet_replica_lag_versions"))
	bootstraps := 0.0
	for _, n := range replicas {
		lag = math.Max(lag, math.Max(before[n].MaxAll("nevermind_replica_lag_versions"), after[n].MaxAll("nevermind_replica_lag_versions")))
		bootstraps += after[n].Get("nevermind_replica_bootstraps_total", "", "")
	}
	m["replica.lag_max_versions"] = lag
	m["replica.bootstraps"] = bootstraps

	m["serve.store_ingest_us"] = ld.Hist("nevermind_store_ingest_duration_seconds", "op", "ingest_tests").Mean() * 1e6
	m["serve.shard_contention"] = dd.SumAll("nevermind_store_shard_contention_total")
	m["serve.snapshot_builds.delta"] = dd.Get("nevermind_store_snapshot_builds_total", "kind", "delta")
	m["serve.snapshot_builds.full"] = dd.Get("nevermind_store_snapshot_builds_total", "kind", "full")
	m["serve.snapshot_build_ms"] = dd.Hist("nevermind_store_snapshot_build_duration_seconds", "", "").Mean() * 1e3
	m["serve.delta_apply_ms"] = dd.Hist("nevermind_store_snapshot_delta_apply_duration_seconds", "", "").Mean() * 1e3
	rows := dd.Get("nevermind_ml_score_rows_total", "", "")
	m["ml.score_ns_per_row"] = ratio(dd.Hist("nevermind_ml_score_duration_seconds", "", "").Sum*1e9, rows)
	// Inputs to tableBuilds, which needs the ladder's rows per locate.
	m["rows"], m["locate_legs"], m["read_legs"] = rows, dd.Get("nevermind_http_requests_total", "route", "locate"), legs

	m["wal.fsync_us"] = ld.Hist("nevermind_wal_fsync_duration_seconds", "", "").Mean() * 1e6
	m["wal.records"] = ld.Get("nevermind_wal_records_total", "", "")
	m["wal.checkpoints"] = ld.Get("nevermind_checkpoints_total", "", "")
	m["wal.checkpoint_ms"] = ld.Hist("nevermind_checkpoint_duration_seconds", "", "").Mean() * 1e3

	// Gateway route means, for the blocking-path accounting.
	for _, route := range append(append([]string(nil), readRoutes...), "ingest") {
		m["gw_route_us."+route] = gw.Hist(gwLat, "route", route).Mean() * 1e6
	}
	return m
}

// tableBuilds splits the daemons' compiled-scorer rows into locate rows
// and score-table rows. A shard's table spans the whole population, not
// only its arc, so each build scores numLines rows.
func tableBuilds(m map[string]float64) {
	tableRows := math.Max(0, m["rows"]-m["locate_legs"]*m["core.locate_rows"])
	m["serve.table_builds"] = tableRows / numLines
	m["serve.rows_scored_per_read"] = ratio(tableRows, m["read_legs"])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// routeOf maps a span name ("lookup1 POST /v1/score") to its route.
func routeOf(name string) string {
	switch {
	case strings.HasSuffix(name, "/v1/score"):
		return "score"
	case strings.HasSuffix(name, "/v1/rank"):
		return "rank"
	case strings.HasSuffix(name, "/v1/locate"):
		return "locate"
	case strings.HasSuffix(name, "/v1/ingest"):
		return "ingest"
	}
	return ""
}

// unaccounted is the share of the blocking path's time (every window span)
// that the layers below do not cover: each span is accounted the idle round
// trip plus the gateway's mean handling time for its route, which in turn
// is the gateway's self time plus the shard legs' route time.
func unaccounted(spans []span, lm map[string]float64, rttUs float64) float64 {
	var total, covered float64
	for _, s := range spans {
		if s.Parent != "window" {
			continue
		}
		route := routeOf(s.Name)
		if route == "" {
			continue
		}
		total += float64(s.End-s.Start) / 1e3
		covered += rttUs + lm["gw_route_us."+route]
	}
	if total == 0 {
		return 0
	}
	return 1 - covered/total
}

// runLadder replays the captured inputs in-process through each layer's
// public function.
func runLadder(ladder, manifest string) (map[string]float64, error) {
	cmd := exec.Command(ladder, "-manifest", manifest)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var m map[string]float64
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &m); err != nil {
		return nil, fmt.Errorf("ladder output: %w", err)
	}
	return m, nil
}

func writeSpans(dir, workload string, seed uint64, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed-%d.jsonl", workload, seed))
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, s := range spans {
		enc.Encode(s)
	}
	return path, os.WriteFile(path, b.Bytes(), 0o644)
}
