// Command ladder times the rungs of the fleet benchmark's layer ladder: it
// replays the inputs a traced run captured in-process through each layer's
// public function and prints one JSON object of metric name to value.
//
//	ladder -manifest .bench_build/fleetbench/capture/manifest.json
//
// It lives apart from the end-to-end load generator so that a refactor of these
// internals can break the ladder without stopping the end-to-end run from
// building.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"time"

	"nevermind/internal/core"
	"nevermind/internal/data"
	"nevermind/internal/features"
	"nevermind/internal/fleet"
	"nevermind/internal/ml"
	"nevermind/internal/serve"
)

type manifest struct {
	Data    string `json:"data"`
	Model   string `json:"model"`
	Locator string `json:"locator"`
	Week    int    `json:"week"`
	Weeks   []int  `json:"weeks"`
	Scores  []string
	Bulk    string
	Chunks  []string
	Locates []struct {
		Line data.LineID `json:"line"`
		Week int         `json:"week"`
	}
}

func main() {
	path := flag.String("manifest", "", "capture manifest written by the load generator")
	flag.Parse()
	if err := ladder(*path); err != nil {
		fmt.Fprintln(os.Stderr, "ladder:", err)
		os.Exit(1)
	}
}

// minTime is how long each per-item rung loops over its inputs.
const minTime = 300 * time.Millisecond

func ladder(path string) error {
	var in manifest
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	read := func(paths []string) ([][]byte, error) {
		var out [][]byte
		for _, p := range paths {
			b, err := os.ReadFile(p)
			if err != nil {
				return nil, err
			}
			out = append(out, b)
		}
		return out, nil
	}
	bulkBody, err := os.ReadFile(in.Bulk)
	if err != nil {
		return err
	}
	scores, err := read(in.Scores)
	if err != nil {
		return err
	}
	scores = append(scores, bulkBody)
	chunks, err := read(in.Chunks)
	if err != nil {
		return err
	}
	m := map[string]float64{}

	// serve.ParseScoreExamples over the captured score bodies.
	var examples int
	t0 := time.Now()
	for time.Since(t0) < minTime {
		for _, body := range scores {
			exs, err := serve.ParseScoreExamples(body)
			if err != nil {
				return err
			}
			examples += len(exs)
		}
	}
	m["serve.parse_ns_per_example"] = float64(time.Since(t0).Nanoseconds()) / float64(examples)

	// serve.DecodeStrict into serve.IngestRequest over the captured chunks.
	var records int
	t0 = time.Now()
	for time.Since(t0) < minTime && len(chunks) > 0 {
		for _, body := range chunks {
			var req serve.IngestRequest
			if err := serve.DecodeStrict(bytes.NewReader(body), &req); err != nil {
				return err
			}
			records += len(req.Tests) + len(req.Tickets)
		}
	}
	m["serve.ingest_decode_ns_per_record"] = ratio(float64(time.Since(t0).Nanoseconds()), float64(records))

	ds, err := data.Load(in.Data)
	if err != nil {
		return err
	}
	tests, tickets := ingestRecords(ds, in.Weeks)

	// Server.Handler: one bare daemon holding the captured weeks.
	srv, err := newServer(in, nil, tests, tickets)
	if err != nil {
		return err
	}
	if m["serve.inproc_us.bulk"], err = timeHandler(srv.Handler(), bulkBody); err != nil {
		return err
	}

	// Gateway.Handler over fleet.HostTransport: two in-process shards.
	names := []string{"s0", "s1"}
	ring, err := fleet.NewRing(names, 0)
	if err != nil {
		return err
	}
	ht := fleet.HostTransport{}
	var specs []fleet.ShardSpec
	for _, n := range names {
		owns, err := ring.Owns(n)
		if err != nil {
			return err
		}
		s, err := newServer(in, owns, tests, tickets)
		if err != nil {
			return err
		}
		ht[n] = s.Handler()
		specs = append(specs, fleet.ShardSpec{Name: n, URL: "http://" + n})
	}
	gw, err := fleet.NewGateway(fleet.Config{Shards: specs, Transport: ht})
	if err != nil {
		return err
	}
	if m["fleet.inproc_us.bulk"], err = timeHandler(gw.Handler(), bulkBody); err != nil {
		return err
	}

	// TicketPredictor.ScoreExamplesIx over one full-width week: the work of
	// one score-table build.
	pred, err := core.LoadPredictor(in.Model)
	if err != nil {
		return err
	}
	ix := data.NewTicketIndex(ds)
	exs := make([]features.Example, ds.NumLines)
	for i := range exs {
		exs[i] = features.Example{Line: data.LineID(i), Week: in.Week}
	}
	var builds []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := pred.ScoreExamplesIx(ds, ix, exs); err != nil {
			return err
		}
		builds = append(builds, float64(time.Since(t0).Microseconds())/1e3)
	}
	m["core.table_build_ms"] = median(builds)

	// TroubleLocator.Posteriors for one case at a time.
	loc, err := core.LoadLocator(in.Locator)
	if err != nil {
		return err
	}
	// Locate scoring flows through the same compiled-scorer counter as
	// score-table builds; count its rows per case so the generator can tell
	// the two apart in a daemon's nevermind_ml_score_rows_total.
	var rows int
	ml.SetScoreObserver(func(n int, _ time.Duration) { rows += n })
	c0 := in.Locates[0]
	if _, err := loc.Posteriors(ds, []core.DispatchCase{{Line: c0.Line, Week: c0.Week}}, core.ModelCombined); err != nil {
		return err
	}
	ml.SetScoreObserver(nil)
	m["core.locate_rows"] = float64(rows)
	var n int
	t0 = time.Now()
	for time.Since(t0) < minTime {
		for _, c := range in.Locates {
			if _, err := loc.Posteriors(ds, []core.DispatchCase{{Line: c.Line, Week: c.Week}}, core.ModelCombined); err != nil {
				return err
			}
			n++
		}
	}
	m["core.locate_us"] = float64(time.Since(t0).Microseconds()) / float64(n)

	out, _ := json.Marshal(m)
	fmt.Println(string(out))
	return nil
}

// ingestRecords renders the weeks' line tests and every ticket up to the last
// week's Saturday as ingest records.
func ingestRecords(ds *data.Dataset, weeks []int) ([]serve.TestRecord, []serve.TicketRecord) {
	var tests []serve.TestRecord
	last := 0
	for _, w := range weeks {
		last = max(last, w)
		for l := 0; l < ds.NumLines; l++ {
			m := ds.At(data.LineID(l), w)
			tests = append(tests, serve.TestRecord{Line: data.LineID(l), Week: w, Missing: m.Missing, F: m.F[:],
				Profile: ds.ProfileOf[l], DSLAM: ds.DSLAMOf[l], Usage: ds.UsageOf[l]})
		}
	}
	var tickets []serve.TicketRecord
	for _, t := range ds.Tickets {
		if t.Day <= data.SaturdayOf(last) {
			tickets = append(tickets, serve.TicketRecord{ID: t.ID, Line: t.Line, Day: t.Day, Category: uint8(t.Category)})
		}
	}
	return tests, tickets
}

// newServer builds a daemon with its own model copies, optionally owning
// only part of the ring, and ingests the records.
func newServer(in manifest, owns func(data.LineID) bool, tests []serve.TestRecord, tickets []serve.TicketRecord) (*serve.Server, error) {
	pred, err := core.LoadPredictor(in.Model)
	if err != nil {
		return nil, err
	}
	loc, err := core.LoadLocator(in.Locator)
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{Predictor: pred, Locator: loc})
	if err != nil {
		return nil, err
	}
	if owns != nil {
		srv.Store().SetOwner(owns)
	}
	if _, err := srv.Store().IngestTests(append([]serve.TestRecord(nil), tests...)); err != nil {
		return nil, err
	}
	if _, err := srv.Store().IngestTickets(tickets); err != nil {
		return nil, err
	}
	return srv, nil
}

// timeHandler serves body once to warm the week's tables, then returns the
// median of the warm calls in microseconds.
func timeHandler(h http.Handler, body []byte) (float64, error) {
	var xs []float64
	for i := 0; i < 16; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/score", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		d := time.Since(t0)
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("in-process score: status %d: %s", rec.Code, rec.Body.String())
		}
		if i > 0 {
			xs = append(xs, float64(d.Nanoseconds())/1e3)
		}
	}
	return median(xs), nil
}

func median(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
