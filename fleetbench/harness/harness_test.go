package harness

import (
	"math"
	"reflect"
	"testing"
	"time"
)

var testMix = Mix{Rate: 400, Window: 10 * time.Second, Lines: 20000, BulkEvery: time.Second}

func TestScheduleIsPureFunctionOfSeedAndWorkload(t *testing.T) {
	a := Schedule(7, "weekly-cycle/probe", testMix)
	b := Schedule(7, "weekly-cycle/probe", testMix)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (seed, workload, mix) gave different schedules")
	}
	if reflect.DeepEqual(a, Schedule(8, "weekly-cycle/probe", testMix)) {
		t.Fatal("different seeds gave the same schedule")
	}
	if reflect.DeepEqual(a, Schedule(7, "care-reads", testMix)) {
		t.Fatal("different workloads gave the same schedule")
	}
}

func TestScheduleShape(t *testing.T) {
	ops := Schedule(3, "care-reads", testMix)
	var n [NumClasses]int
	weekBack := 0
	scores := 0
	for i, op := range ops {
		if i > 0 && op.Due < ops[i-1].Due {
			t.Fatalf("op %d due %v before op %d due %v", i, op.Due, i-1, ops[i-1].Due)
		}
		if op.Due < 0 || op.Due >= testMix.Window {
			t.Fatalf("op %d due %v outside the window", i, op.Due)
		}
		n[op.Class]++
		switch op.Class {
		case Lookup1, Locate:
			if len(op.Lines) != 1 {
				t.Fatalf("%v op with %d lines", op.Class, len(op.Lines))
			}
		case Lookup100:
			if len(op.Lines) != 100 {
				t.Fatalf("lookup100 with %d lines", len(op.Lines))
			}
			for k := 1; k < len(op.Lines); k++ {
				if op.Lines[k] <= op.Lines[k-1] {
					t.Fatal("lookup100 lines not distinct and ascending")
				}
			}
		}
		for _, l := range op.Lines {
			if l < 0 || int(l) >= testMix.Lines {
				t.Fatalf("line %d outside the population", l)
			}
		}
		if op.Class == Lookup1 || op.Class == Lookup100 {
			scores++
			if op.WeekBack > 0 {
				weekBack++
			}
		} else if op.WeekBack != 0 {
			t.Fatalf("%v op targets an older week", op.Class)
		}
	}
	reads := n[Lookup1] + n[Lookup100] + n[Rank] + n[Locate]
	if want := 4000.0; math.Abs(float64(reads)-want) > 0.05*want {
		t.Fatalf("%d reads in 10s at 400/s", reads)
	}
	for c, want := range map[Class]float64{Lookup1: .60, Lookup100: .15, Rank: .15, Locate: .10} {
		if got := float64(n[c]) / float64(reads); math.Abs(got-want) > 0.03 {
			t.Errorf("%v share %.3f, want %.2f", c, got, want)
		}
	}
	if got := float64(weekBack) / float64(scores); math.Abs(got-0.25) > 0.03 {
		t.Errorf("older-week share of scores %.3f, want 0.25", got)
	}
	if n[Bulk] != 10 {
		t.Errorf("%d bulk ops in 10s, want 10", n[Bulk])
	}
}

func TestScheduleWithoutReads(t *testing.T) {
	ops := Schedule(1, "x", Mix{Window: 3 * time.Second, BulkEvery: time.Second})
	if len(ops) != 3 {
		t.Fatalf("%d ops in 3s of bulk only, want 3", len(ops))
	}
	for k, op := range ops {
		if op.Class != Bulk || op.Due != time.Duration(k)*time.Second+500*time.Millisecond {
			t.Fatalf("op %d = %+v", k, op)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{20, 1}, {50, 3}, {60, 3}, {61, 4}, {100, 5}} {
		if got := Percentile(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("empty percentile is not NaN")
	}
}

func TestHighestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false}, {19, 0, false}, {20, 50, true}, {99, 50, true}, {100, 90, true},
		{999, 90, true}, {1000, 99, true}, {9999, 99, true}, {10000, 99.9, true},
	} {
		got, ok := HighestSupported(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("n=%d: got (%v,%v), want (%v,%v)", c.n, got, ok, c.want, c.ok)
		}
	}
	if Supported(999, 99) || !Supported(1000, 99) {
		t.Error("p99 must need exactly 1000 samples")
	}
}

const before = `# HELP nevermind_http_requests_total Requests served, by route.
# TYPE nevermind_http_requests_total counter
nevermind_http_requests_total{route="score"} 10
nevermind_http_requests_total{route="rank"} 4
# TYPE nevermind_http_request_duration_seconds histogram
nevermind_http_request_duration_seconds_bucket{route="score",le="0.001"} 9
nevermind_http_request_duration_seconds_bucket{route="score",le="+Inf"} 10
nevermind_http_request_duration_seconds_sum{route="score"} 0.002
nevermind_http_request_duration_seconds_count{route="score"} 10
nevermind_store_version 7
nevermind_ml_score_rows_total 1e+06
`

const after = `nevermind_http_requests_total{route="score"} 110
nevermind_http_requests_total{route="rank"} 4
nevermind_http_requests_total{route="locate"} 3
nevermind_http_request_duration_seconds_bucket{route="score",le="0.001"} 100
nevermind_http_request_duration_seconds_bucket{route="score",le="+Inf"} 110
nevermind_http_request_duration_seconds_sum{route="score"} 0.032
nevermind_http_request_duration_seconds_count{route="score"} 110
nevermind_store_version 9
nevermind_ml_score_rows_total 1.04e+06
`

func TestMetricsDelta(t *testing.T) {
	b, err := ParseMetrics(before)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ParseMetrics(after)
	if err != nil {
		t.Fatal(err)
	}
	d := Delta(b, a)
	if got := d.Get("nevermind_http_requests_total", "route", "score"); got != 100 {
		t.Errorf("score requests delta %v, want 100", got)
	}
	if got := d.Get("nevermind_http_requests_total", "route", "rank"); got != 0 {
		t.Errorf("rank requests delta %v, want 0", got)
	}
	if got := d.Get("nevermind_http_requests_total", "route", "locate"); got != 3 {
		t.Errorf("a series new in the second scrape counts from zero: got %v", got)
	}
	if got := d.SumAll("nevermind_http_requests_total"); got != 103 {
		t.Errorf("sum over routes %v, want 103", got)
	}
	h := d.Hist("nevermind_http_request_duration_seconds", "route", "score")
	if h.Count != 100 || math.Abs(h.Mean()-0.0003) > 1e-12 {
		t.Errorf("histogram delta %+v mean %v, want 100 observations of 0.3ms", h, h.Mean())
	}
	if got := d.Get("nevermind_ml_score_rows_total", "", ""); got != 40000 {
		t.Errorf("exponent-form counter delta %v, want 40000", got)
	}
	if got := a.MaxAll("nevermind_store_version"); got != 9 {
		t.Errorf("gauge read %v, want 9", got)
	}
	m := Merge(b, a)
	if got := m.Get("nevermind_http_requests_total", "route", "score"); got != 120 {
		t.Errorf("merged %v, want 120", got)
	}
	if (Hist{}).Mean() != 0 {
		t.Error("empty histogram mean is not 0")
	}
}

func TestParseMetricsRejectsGarbage(t *testing.T) {
	if _, err := ParseMetrics("novalue\n"); err == nil {
		t.Error("line without value accepted")
	}
	if _, err := ParseMetrics("x{a=\"b\"} notanumber\n"); err == nil {
		t.Error("non-numeric value accepted")
	}
}
