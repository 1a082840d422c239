package fleet_test

import (
	"errors"
	"net/http"
	"reflect"
	"testing"
	"time"

	"nevermind/internal/chaos"
	"nevermind/internal/data"
	"nevermind/internal/fleet"
	"nevermind/internal/serve"
	"nevermind/internal/sim"
)

// TestGatewayBackendClassifiesReplies pins how the gateway backend maps
// what its own handler answered onto the pipeline's error taxonomy. One
// scripted shard stands behind the gateway; its replies are relayed, so
// each case drives one class: a 5xx is transient, a "bad batch" 400 is
// serve.ErrBadBatch, any other 4xx is terminal, and a lagging shard in
// /healthz or a partial rank makes the ranking stale.
func TestGatewayBackendClassifiesReplies(t *testing.T) {
	const (
		fresh  = `{"status":"ok","lines":4,"latest_week":40,"budget_n":2,"grid_lines":4,"version":3,"snapshot_lag":0}`
		behind = `{"status":"ok","lines":4,"latest_week":40,"budget_n":2,"grid_lines":4,"version":3,"snapshot_lag":1}`
		ranked = `{"n":2,"population":4,"predictions":[{"line":2,"week":40,"score":0.9,"probability":0.6},{"line":0,"week":40,"score":0.1,"probability":0.2}],"week":40}`
	)
	type want int
	const (
		ok want = iota
		transient
		badBatch
		terminal
		stale
	)
	cases := []struct {
		name   string
		op     string // "ingest" or "rank"
		health string
		status int    // the shard's status on the op's route
		body   string // the shard's body on the op's route
		peer   int    // if set, a fresh second shard answers /v1/rank with this status
		want   want
	}{
		{"ingest 5xx is transient", "ingest", fresh, 500, `{"error":"disk on fire"}`, 0, transient},
		{"bad batch 400", "ingest", fresh, 400, `{"error":"bad batch: record 0: week 99 outside the year"}`, 0, badBatch},
		{"other 4xx is terminal", "ingest", fresh, 403, `{"error":"replica is read-only; ingest through the leader"}`, 0, terminal},
		{"rank 5xx is transient", "rank", fresh, 500, `{"error":"score table build failed"}`, 0, transient},
		{"lagging shard is stale", "rank", behind, 200, ranked, 0, stale},
		{"partial rank is stale", "rank", fresh, 200, ranked, 500, stale},
		{"fresh fleet ranks", "rank", fresh, 200, ranked, 0, ok},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			shard := func(health string, status int, body string) http.HandlerFunc {
				return func(w http.ResponseWriter, r *http.Request) {
					w.Header().Set("Content-Type", "application/json")
					switch r.URL.Path {
					case "/healthz":
						w.Write([]byte(health))
					case "/v1/ingest", "/v1/rank":
						w.WriteHeader(status)
						w.Write([]byte(body))
					default:
						w.WriteHeader(http.StatusNotFound)
					}
				}
			}
			specs := []fleet.ShardSpec{{Name: "s0", URL: "http://s0"}}
			hosts := fleet.HostTransport{"s0": shard(tc.health, tc.status, tc.body)}
			if tc.peer != 0 {
				specs = append(specs, fleet.ShardSpec{Name: "s1", URL: "http://s1"})
				hosts["s1"] = shard(fresh, tc.peer, `{"error":"leg failed"}`)
			}
			gw, err := fleet.NewGateway(fleet.Config{
				Shards:    specs,
				Transport: hosts,
				Retry:     serve.RetryConfig{MaxAttempts: 1},
				Sleep:     func(time.Duration) {},
			})
			if err != nil {
				t.Fatal(err)
			}
			var rk serve.Ranking
			if tc.op == "ingest" {
				_, err = gw.Ingest([]serve.TestRecord{{Line: 1, Week: 40, F: []float32{1}}}, nil)
			} else {
				rk, err = gw.FreshRank(40, 3)
			}
			var got want
			switch {
			case err == nil:
				got = ok
			case serve.IsTransient(err):
				got = transient
			case serve.IsBadBatch(err):
				got = badBatch
			case errors.Is(err, serve.ErrStaleSnapshot):
				got = stale
			default:
				got = terminal
			}
			if got != tc.want {
				t.Fatalf("classified as %d, want %d (err %v)", got, tc.want, err)
			}
			if tc.want != ok {
				return
			}
			top, err := rk.Top()
			if err != nil {
				t.Fatal(err)
			}
			if rk.GridLines != 4 || !reflect.DeepEqual(top, []data.LineID{2, 0}) {
				t.Fatalf("ranking: grid %d top %v, want grid 4 top [2 0]", rk.GridLines, top)
			}
		})
	}
}

// TestGatewayPipelineUnderChaos runs the weekly loop over a 2-shard fleet
// with a chaos-wrapped feed (outages, truncated and corrupt deliveries) and
// shard kills on the gateway's shard calls. Every week must complete
// exactly once with the same outcomes a clean 2-shard run gets, and every
// retry must name the week it retries.
func TestGatewayPipelineUnderChaos(t *testing.T) {
	ds, _, _ := fixture(t)
	run := func(inj *chaos.Injector) ([]serve.WeekReport, int) {
		var hooks *fleet.FaultHooks
		if inj != nil {
			hooks = inj.FleetHooks()
		}
		tf := newTestFleet(t, 2, hooks, serve.RetryConfig{MaxAttempts: 2})
		src, err := sim.NewSource(ds, 40, 43)
		if err != nil {
			t.Fatal(err)
		}
		feed := serve.SimFeed(src)
		if inj != nil {
			feed = inj.WrapSource(feed)
		}
		var reports []serve.WeekReport
		retries := 0
		pl, err := serve.NewPipeline(tf.gw, serve.PipelineConfig{
			Source:  feed,
			Retry:   serve.RetryConfig{MaxAttempts: 20},
			Sleep:   func(time.Duration) {},
			OnWeek:  func(r serve.WeekReport) { reports = append(reports, r) },
			OnRetry: func(e serve.RetryEvent) {
				retries++
				if e.Week < 40 || e.Week > 43 {
					t.Errorf("%s retry names week %d, want 40..43", e.Op, e.Week)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := pl.Run(t.Context()); err != nil {
			t.Fatal(err)
		}
		return reports, retries
	}

	clean, _ := run(nil)
	inj := chaos.New(chaos.Config{
		Seed:           5,
		SourceError:    0.15,
		PartialBatch:   0.1,
		MalformedBatch: 0.1,
		ShardKill:      0.2,
	})
	chaotic, retries := run(inj)

	st := inj.Stats()
	if st.ShardKills == 0 || st.SourceErrors+st.PartialBatches+st.MalformedBatches == 0 {
		t.Fatalf("the storm injected too little to test anything: %+v", st)
	}
	if retries == 0 {
		t.Fatal("the pipeline retried nothing under faults")
	}
	if len(chaotic) != len(clean) || len(clean) != 4 {
		t.Fatalf("chaotic run completed %d weeks, clean %d, want 4", len(chaotic), len(clean))
	}
	for i := range clean {
		c, g := clean[i], chaotic[i]
		if g.Week != 40+i || c.Week != g.Week {
			t.Fatalf("week %d dispatched out of order (or twice)", g.Week)
		}
		if g.Stats != c.Stats || g.Submitted != c.Submitted || g.IngestedTests != c.IngestedTests {
			t.Fatalf("week %d diverged from the clean run:\nchaos %+v\nclean %+v", g.Week, g, c)
		}
	}
	t.Logf("faults %+v, pipeline retries %d", st, retries)
}
