package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"nevermind/internal/data"
	"nevermind/internal/serve"
)

// The gateway is a serve.Backend: serve.NewPipeline(gw, ...) runs the weekly
// loop fleet-wide. Both operations go through the gateway's own handler in
// process, so the loop exercises exactly the routing and merging external
// clients see: the ring partitions each week's feed and the shards ingest
// their slices in parallel.
var _ serve.Backend = (*Gateway)(nil)

// Ingest sends one week's records through /v1/ingest and reports the merged
// counts and the fleet version (the sum of the shards' ingest clocks).
func (g *Gateway) Ingest(tests []serve.TestRecord, tickets []serve.TicketRecord) (serve.IngestReply, error) {
	var rep serve.IngestReply
	body, err := json.Marshal(&serve.IngestRequest{Tests: tests, Tickets: tickets})
	if err != nil {
		return rep, err
	}
	rec, err := g.selfCall(http.MethodPost, "/v1/ingest", body)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(rec.buf.Bytes(), &rep); err != nil {
		return rep, fmt.Errorf("fleet: ingest reply: %w", err)
	}
	return rep, nil
}

// FreshRank ranks week fleet-wide and accepts the answer only if the fleet
// had absorbed the ingest that produced version. The /v1/rank pass makes
// every data-holding shard rebuild its snapshot (or keep serving the stale
// one if the rebuild fails); the /healthz that follows must then show every
// shard up, the fleet version at least version, and no data-holding shard
// lagging. A partial rank or a lagging fleet is serve.ErrStaleSnapshot.
func (g *Gateway) FreshRank(week int, version uint64) (serve.Ranking, error) {
	rank, err := g.selfCall(http.MethodGet, "/v1/rank?week="+strconv.Itoa(week), nil)
	if err != nil {
		return serve.Ranking{}, err
	}
	hrec, err := g.selfCall(http.MethodGet, "/healthz", nil)
	var h fleetHealth
	if err != nil || json.Unmarshal(hrec.buf.Bytes(), &h) != nil ||
		rank.header.Get("X-Fleet-Partial") != "" || !h.fresh(version) {
		return serve.Ranking{}, fmt.Errorf("fleet: %w", serve.ErrStaleSnapshot)
	}
	// The accepted rank body is the merged fleet-wide TopN in rank order.
	frags, err := splitArray(rank.buf.Bytes(), "predictions")
	if err != nil {
		return serve.Ranking{}, err
	}
	lines := make([]data.LineID, len(frags))
	for i, frag := range frags {
		l, err := fieldInt(frag, "line")
		if err != nil {
			return serve.Ranking{}, err
		}
		lines[i] = data.LineID(l)
	}
	// The fleet's grid width — max over shards of (highest owned test line
	// + 1) — equals the single store's, so the ATDS queue sized from it is
	// identical.
	return serve.Ranking{
		GridLines: h.GridLines,
		Top:       func() ([]data.LineID, error) { return lines, nil },
	}, nil
}

// fresh reports whether the fleet has fully absorbed an ingest: every shard
// up, the summed store version at least wantVersion, and every shard that
// holds grid data serving a snapshot with zero lag.
func (h *fleetHealth) fresh(wantVersion uint64) bool {
	if h.ShardsUp < h.ShardsTotal || h.Version < wantVersion {
		return false
	}
	for _, s := range h.Shards {
		if !s.Up || (s.GridLines > 0 && s.SnapshotLag != 0) {
			return false
		}
	}
	return true
}

// selfCall serves one request through the gateway's own handler and
// classifies a failed reply into the pipeline's error taxonomy: a 5xx (a
// down shard, a shed, a failed rebuild) is transient, a "bad batch" 400 is
// serve.ErrBadBatch (the sentinel survives the hop by its stable message
// prefix), and any other 4xx is terminal.
func (g *Gateway) selfCall(method, path string, body []byte) (*respRecorder, error) {
	req, err := http.NewRequest(method, "http://gateway"+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := &respRecorder{header: make(http.Header), code: http.StatusOK}
	g.mux.ServeHTTP(rec, req)
	if rec.code == http.StatusOK {
		return rec, nil
	}
	msg := rec.buf.String()
	var ej struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(rec.buf.Bytes(), &ej) == nil && ej.Error != "" {
		msg = ej.Error
	}
	if rec.code >= 500 {
		return nil, serve.Transient(errors.New(msg))
	}
	if rest, ok := strings.CutPrefix(msg, serve.ErrBadBatch.Error()); ok {
		return nil, fmt.Errorf("%w%s", serve.ErrBadBatch, rest)
	}
	return nil, errors.New(msg)
}
