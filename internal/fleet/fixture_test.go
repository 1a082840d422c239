package fleet_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"
	"time"

	"nevermind/internal/core"
	"nevermind/internal/data"
	"nevermind/internal/features"
	"nevermind/internal/fleet"
	"nevermind/internal/serve"
	"nevermind/internal/sim"
)

// The fixture mirrors internal/serve's exactly — same population, seed and
// training config — because the golden replay test here must reproduce the
// byte-identical output serve's golden pins.
var (
	fixtureDS   *data.Dataset
	fixturePred *core.TicketPredictor
	fixtureLoc  *core.TroubleLocator
)

func fixture(t *testing.T) (*data.Dataset, *core.TicketPredictor, *core.TroubleLocator) {
	t.Helper()
	if fixtureDS == nil {
		res, err := sim.Run(sim.DefaultConfig(2000, 11))
		if err != nil {
			t.Fatal(err)
		}
		fixtureDS = res.Dataset

		pred, err := trainFixturePredictor(fixtureDS, nil)
		if err != nil {
			t.Fatal(err)
		}
		fixturePred = pred

		lcfg := core.DefaultLocatorConfig(11)
		lcfg.Rounds = 20
		lcfg.MinCases = 5
		cases := core.CasesFromNotes(fixtureDS, data.FirstSaturday, data.SaturdayOf(40)-1)
		loc, err := core.TrainLocator(fixtureDS, cases, lcfg)
		if err != nil {
			t.Fatal(err)
		}
		fixtureLoc = loc
	}
	return fixtureDS, fixturePred, fixtureLoc
}

// trainFixturePredictor trains the fixture's predictor, threading cache
// through training as the eval harness does (nil trains uncached). A cached
// predictor keeps the cache attached afterwards.
func trainFixturePredictor(ds *data.Dataset, cache *features.Cache) (*core.TicketPredictor, error) {
	cfg := core.DefaultPredictorConfig(ds.NumLines, 11)
	cfg.Rounds = 40
	cfg.MaxSelectExamples = 12000
	return core.TrainPredictorCached(ds, features.WeekRange(32, 38), cfg, cache)
}

// recordsFor converts weeks [lo, hi] of the dataset into ingest records,
// exactly as serve's tests do.
func recordsFor(ds *data.Dataset, lo, hi int) ([]serve.TestRecord, []serve.TicketRecord) {
	var tests []serve.TestRecord
	for w := lo; w <= hi; w++ {
		for li := 0; li < ds.NumLines; li++ {
			m := ds.At(data.LineID(li), w)
			tests = append(tests, serve.TestRecord{
				Line: m.Line, Week: w, Missing: m.Missing, F: append([]float32(nil), m.F[:]...),
				Profile: ds.ProfileOf[li], DSLAM: ds.DSLAMOf[li], Usage: ds.UsageOf[li],
			})
		}
	}
	var tickets []serve.TicketRecord
	for _, tk := range ds.Tickets {
		if tk.Day <= data.SaturdayOf(hi) {
			tickets = append(tickets, serve.TicketRecord{ID: tk.ID, Line: tk.Line, Day: tk.Day, Category: uint8(tk.Category)})
		}
	}
	return tests, tickets
}

// testFleet is an in-process fleet: n shard daemons spliced into a gateway
// by host-routed transport, plus a bare single daemon holding the same data
// for byte-equality comparison.
type testFleet struct {
	gw     *fleet.Gateway
	shards []*serve.Server
	single *serve.Server
	names  []string
}

// newTestFleet builds an n-shard gateway and the reference single daemon,
// all serving the fixture models. hooks and retry tune failure behaviour;
// both may be zero-valued.
func newTestFleet(t *testing.T, n int, hooks *fleet.FaultHooks, retry serve.RetryConfig) *testFleet {
	t.Helper()
	_, pred, _ := fixture(t)
	return newTestFleetWith(t, n, hooks, retry, pred)
}

// newTestFleetWith is newTestFleet with every daemon sharing pred.
func newTestFleetWith(t *testing.T, n int, hooks *fleet.FaultHooks, retry serve.RetryConfig, pred *core.TicketPredictor) *testFleet {
	t.Helper()
	_, _, loc := fixture(t)
	tf := &testFleet{}
	ht := fleet.HostTransport{}
	specs := make([]fleet.ShardSpec, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("shard-%d", i)
		srv, err := serve.New(serve.Config{Predictor: pred, Locator: loc})
		if err != nil {
			t.Fatal(err)
		}
		tf.shards = append(tf.shards, srv)
		tf.names = append(tf.names, name)
		specs[i] = fleet.ShardSpec{Name: name, URL: "http://" + name}
		ht[name] = srv.Handler()
	}
	ring, err := fleet.NewRing(tf.names, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n > 1 {
		// Each shard filters ingest to its ring slice, as -fleet.id does.
		for i, srv := range tf.shards {
			owns, err := ring.Owns(tf.names[i])
			if err != nil {
				t.Fatal(err)
			}
			srv.Store().SetOwner(owns)
		}
	}
	tf.gw, err = fleet.NewGateway(fleet.Config{
		Shards:    specs,
		Retry:     retry,
		Transport: ht,
		Sleep:     func(time.Duration) {},
		Hooks:     hooks,
	})
	if err != nil {
		t.Fatal(err)
	}
	tf.single, err = serve.New(serve.Config{Predictor: pred, Locator: loc})
	if err != nil {
		t.Fatal(err)
	}
	return tf
}

// reply is one handler's full observable response.
type reply struct {
	status int
	header http.Header
	body   []byte
}

// do drives one request through a handler in-process.
func do(t *testing.T, h http.Handler, method, path string, body []byte) reply {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, "http://host"+path, rd)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return reply{status: rec.Code, header: rec.Header(), body: rec.Body.Bytes()}
}

// both drives the same request through the gateway and the single daemon and
// requires byte-identical answers; returns the (shared) reply.
func (tf *testFleet) both(t *testing.T, method, path string, body []byte) reply {
	t.Helper()
	g := do(t, tf.gw.Handler(), method, path, body)
	s := do(t, tf.single.Handler(), method, path, body)
	if g.status != s.status || !bytes.Equal(g.body, s.body) {
		t.Fatalf("%s %s diverged:\n  gateway: %d %q\n  single:  %d %q",
			method, path, g.status, truncate(g.body), s.status, truncate(s.body))
	}
	return g
}

var versionField = regexp.MustCompile(`"version":\d+`)

// bothModuloVersion is both for N-shard fleets on responses carrying the
// store-version field: the fleet's version is the sum of shard versions (a
// fleet-wide ingest clock), deliberately not the single store's counter, so
// the comparison normalizes that one field and requires everything else
// byte-identical.
func (tf *testFleet) bothModuloVersion(t *testing.T, method, path string, body []byte) {
	t.Helper()
	g := do(t, tf.gw.Handler(), method, path, body)
	s := do(t, tf.single.Handler(), method, path, body)
	gb := versionField.ReplaceAll(g.body, []byte(`"version":X`))
	sb := versionField.ReplaceAll(s.body, []byte(`"version":X`))
	if g.status != s.status || !bytes.Equal(gb, sb) {
		t.Fatalf("%s %s diverged (version normalized):\n  gateway: %d %q\n  single:  %d %q",
			method, path, g.status, truncate(gb), s.status, truncate(sb))
	}
}

func truncate(b []byte) []byte {
	if len(b) > 300 {
		return append(append([]byte{}, b[:300]...), "..."...)
	}
	return b
}
