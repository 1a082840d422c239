package chaos

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nevermind/internal/data"
	"nevermind/internal/serve"
	"nevermind/internal/sim"
)

// scriptedFeed is a minimal serve.Source over premade batches.
type scriptedFeed struct {
	batches []sim.Batch
	i       int
}

func (f *scriptedFeed) Remaining() int { return len(f.batches) - f.i }
func (f *scriptedFeed) Next() (sim.Batch, bool, error) {
	if f.i >= len(f.batches) {
		return sim.Batch{}, false, nil
	}
	b := f.batches[f.i]
	f.i++
	return b, true, nil
}

func weekBatch(week, n int) sim.Batch {
	b := sim.Batch{Week: week}
	for l := 0; l < n; l++ {
		b.Tests = append(b.Tests, sim.LineTest{
			M: data.Measurement{Line: data.LineID(l), Week: week},
		})
	}
	b.Tickets = append(b.Tickets, data.Ticket{ID: week, Line: 0, Day: data.SaturdayOf(week)})
	return b
}

// TestInjectorDeterminism pins the replay contract: two injectors built
// from the same config produce the identical fault schedule at every site.
func TestInjectorDeterminism(t *testing.T) {
	cfg := Config{
		Seed:        99,
		SourceError: 0.2, PartialBatch: 0.2, MalformedBatch: 0.2,
		IngestError: 0.4, SnapshotError: 0.4, ReloadError: 0.4,
		SlowShard: 0.5, ShardDelay: time.Millisecond,
		Sleep: func(time.Duration) {},
	}
	schedule := func() []bool {
		in := New(cfg)
		h := in.Hooks()
		var out []bool
		for i := 0; i < 200; i++ {
			out = append(out, h.IngestTests(1) != nil)
			out = append(out, h.SnapshotBuild(uint64(i)) != nil)
			out = append(out, h.ReloadProbe() != nil)
		}
		return out
	}
	a, b := schedule(), schedule()
	hits := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at decision %d", i)
		}
		if a[i] {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("no faults fired at 40% rates")
	}

	// A different seed yields a different schedule.
	cfg2 := cfg
	cfg2.Seed = 100
	in2 := New(cfg2)
	h2 := in2.Hooks()
	diff := 0
	for i := 0; i < 200; i++ {
		if (h2.IngestTests(1) != nil) != a[i*3] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("seed change did not move the schedule")
	}
}

// TestInjectorBoundedConsecutive pins the progress guarantee: even at rate
// 1.0 a site fails at most MaxConsecutive times in a row, then is forced to
// pass, so any retry loop with a larger budget always completes.
func TestInjectorBoundedConsecutive(t *testing.T) {
	in := New(Config{Seed: 1, IngestError: 1.0, MaxConsecutive: 3})
	h := in.Hooks()
	run := 0
	passes := 0
	for i := 0; i < 100; i++ {
		if h.IngestTests(1) != nil {
			run++
			if run > 3 {
				t.Fatalf("call %d: %d consecutive failures exceed the bound", i, run)
			}
		} else {
			run = 0
			passes++
		}
	}
	// At rate 1.0 the pattern is exactly fail,fail,fail,pass repeating.
	if passes != 25 {
		t.Fatalf("expected 25 forced passes at rate 1.0, got %d", passes)
	}
}

// TestInjectorBoundedConsecutiveConcurrent pins the same bound when many
// goroutines roll one site at once: a hit must never take the run counter
// past MaxConsecutive, so between two forced passes there are at most
// MaxConsecutive hits, whatever the interleaving.
func TestInjectorBoundedConsecutiveConcurrent(t *testing.T) {
	const (
		maxRun     = 3
		goroutines = 8
		rolls      = 20000
	)
	in := New(Config{Seed: 1, IngestError: 1.0, MaxConsecutive: maxRun})
	site := &in.ingestTestsSite
	var hits, misses, overruns atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rolls; i++ {
				if in.roll(site, 1.0) {
					hits.Add(1)
				} else {
					misses.Add(1)
				}
				if site.consecutive.Load() > maxRun {
					overruns.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := overruns.Load(); n > 0 {
		t.Fatalf("the run counter exceeded %d on %d rolls", maxRun, n)
	}
	if h, m := hits.Load(), misses.Load(); h > maxRun*(m+1) {
		t.Fatalf("%d hits against %d forced passes exceed %d per run", h, m, maxRun)
	}
}

// TestSourceRedelivery pins the feed contract under injected source faults:
// every week is eventually delivered exactly once and bit-identical to the
// original, in order, regardless of how many faulty attempts precede it;
// Remaining never forgets a pending week.
func TestSourceRedelivery(t *testing.T) {
	const weeks = 12
	var batches []sim.Batch
	for w := 40; w < 40+weeks; w++ {
		batches = append(batches, weekBatch(w, 5))
	}
	in := New(Config{Seed: 3, SourceError: 0.3, PartialBatch: 0.3, MalformedBatch: 0.3})
	src := in.WrapSource(&scriptedFeed{batches: batches})

	store := serve.NewStore(1)
	delivered := map[int]int{}
	var order []int
	attempts := 0
	for {
		rem := src.Remaining()
		b, ok, err := src.Next()
		if !ok {
			break
		}
		attempts++
		if attempts > weeks*(4+1) {
			t.Fatal("source never drained; bound violated")
		}
		if err != nil {
			// Faulty attempt: the week must still be pending.
			if src.Remaining() != rem {
				t.Fatalf("pull error dropped a week from Remaining: %d -> %d", rem, src.Remaining())
			}
			continue
		}
		// A silently malformed batch must fail store validation atomically;
		// that is what guarantees the pipeline discards it and re-pulls.
		recs := make([]serve.TestRecord, len(b.Tests))
		for i, lt := range b.Tests {
			recs[i] = serve.TestRecord{Line: lt.M.Line, Week: lt.M.Week, F: lt.M.F[:]}
		}
		if _, ierr := store.IngestTests(recs); ierr != nil {
			if !serve.IsBadBatch(ierr) {
				t.Fatalf("corrupt batch failed with a non-bad-batch error: %v", ierr)
			}
			if src.Remaining() != rem {
				t.Fatal("malformed delivery consumed the week")
			}
			continue
		}
		// Clean delivery: must match the original bit for bit.
		want := batches[b.Week-40]
		if len(b.Tests) != len(want.Tests) || len(b.Tickets) != len(want.Tickets) {
			t.Fatalf("week %d delivered with %d/%d records, want %d/%d",
				b.Week, len(b.Tests), len(b.Tickets), len(want.Tests), len(want.Tickets))
		}
		for i := range b.Tests {
			if b.Tests[i] != want.Tests[i] {
				t.Fatalf("week %d test %d mutated by the chaos layer", b.Week, i)
			}
		}
		delivered[b.Week]++
		order = append(order, b.Week)
	}
	for w := 40; w < 40+weeks; w++ {
		if delivered[w] != 1 {
			t.Fatalf("week %d delivered %d times", w, delivered[w])
		}
	}
	for i := 1; i < len(order); i++ {
		if order[i] <= order[i-1] {
			t.Fatalf("weeks delivered out of order: %v", order)
		}
	}
	st := in.Stats()
	if st.SourceErrors+st.PartialBatches+st.MalformedBatches == 0 {
		t.Fatal("no source faults fired at 30% rates; the test lost its adversary")
	}

	// Replay: the same seed over the same weeks injects the same faults.
	in2 := New(Config{Seed: 3, SourceError: 0.3, PartialBatch: 0.3, MalformedBatch: 0.3})
	src2 := in2.WrapSource(&scriptedFeed{batches: batches})
	attempts2 := 0
	for {
		_, ok, _ := src2.Next()
		if !ok {
			break
		}
		attempts2++
	}
	if attempts2 != attempts {
		t.Fatalf("replay took %d attempts, original %d", attempts2, attempts)
	}
	if in2.Stats() != st {
		t.Fatalf("replay fault stats diverged: %+v vs %+v", in2.Stats(), st)
	}
}

// TestPartialAndCorruptBatches pins the two delivery-corruption modes
// directly: truncate yields a strict prefix, corrupt yields a batch the
// store rejects whole while the original batch stays untouched.
func TestPartialAndCorruptBatches(t *testing.T) {
	orig := weekBatch(40, 8)
	origTests := append([]sim.LineTest(nil), orig.Tests...)

	in := New(Config{Seed: 5, PartialBatch: 0.999, MaxConsecutive: 1})
	src := in.WrapSource(&scriptedFeed{batches: []sim.Batch{orig}})
	b, ok, err := src.Next()
	if !ok || err == nil {
		t.Fatalf("first attempt should be a partial delivery, got ok=%v err=%v", ok, err)
	}
	if !serve.IsTransient(err) {
		t.Fatalf("partial delivery error is not transient: %v", err)
	}
	if len(b.Tests) >= len(orig.Tests) && len(b.Tickets) >= len(orig.Tickets) {
		t.Fatal("partial delivery dropped nothing")
	}
	for i := range b.Tests {
		if b.Tests[i] != origTests[i] {
			t.Fatal("truncation reordered or mutated records")
		}
	}

	in2 := New(Config{Seed: 5, MalformedBatch: 0.999, MaxConsecutive: 1})
	src2 := in2.WrapSource(&scriptedFeed{batches: []sim.Batch{weekBatch(40, 8)}})
	bad, ok, err := src2.Next()
	if !ok || err != nil {
		t.Fatalf("malformed delivery must be silent: ok=%v err=%v", ok, err)
	}
	store := serve.NewStore(1)
	recs := make([]serve.TestRecord, len(bad.Tests))
	for i, lt := range bad.Tests {
		recs[i] = serve.TestRecord{Line: lt.M.Line, Week: lt.M.Week, F: lt.M.F[:]}
	}
	if _, ierr := store.IngestTests(recs); !serve.IsBadBatch(ierr) {
		t.Fatalf("store accepted a corrupt batch (err=%v)", ierr)
	}
	if store.Version() != 0 {
		t.Fatal("corrupt batch half-applied")
	}
	// The eventual clean delivery is the original, unmutated.
	clean, ok, err := src2.Next()
	if !ok || err != nil {
		t.Fatalf("second attempt: ok=%v err=%v", ok, err)
	}
	for i := range clean.Tests {
		if clean.Tests[i] != origTests[i] {
			t.Fatal("corruption leaked into the retained batch")
		}
	}
}

// TestNewPanicsOnImpossibleRates pins the constructor guard.
func TestNewPanicsOnImpossibleRates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("source rates summing to 1 did not panic")
		}
	}()
	New(Config{SourceError: 0.5, PartialBatch: 0.3, MalformedBatch: 0.2})
}
