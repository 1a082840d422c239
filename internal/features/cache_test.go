package features

import (
	"reflect"
	"testing"

	"nevermind/internal/data"
	"nevermind/internal/ml"
	"nevermind/internal/sim"
)

func cacheDataset(t *testing.T) *data.Dataset {
	t.Helper()
	res, err := sim.Run(sim.DefaultConfig(400, 5))
	if err != nil {
		t.Fatal(err)
	}
	return res.Dataset
}

// TestCacheLRUBoundAndStats pins the cache mechanics: the entry count never
// exceeds the bound, eviction is least-recently-used, and the counters track
// lookups.
func TestCacheLRUBoundAndStats(t *testing.T) {
	c := NewCache(2)
	c.PutBinned("a", &ml.BinnedMatrix{N: 1})
	c.PutBinned("b", &ml.BinnedMatrix{N: 2})
	if _, ok := c.GetBinned("a"); !ok {
		t.Fatal("entry a missing before bound reached")
	}
	// a was just touched, so inserting c must evict b.
	c.PutBinned("c", &ml.BinnedMatrix{N: 3})
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if _, ok := c.GetBinned("b"); ok {
		t.Fatal("LRU evicted the wrong entry: b survived")
	}
	if bm, ok := c.GetBinned("a"); !ok || bm.N != 1 {
		t.Fatal("recently used entry a evicted")
	}
	hits, misses := c.Stats()
	if hits != 2 || misses != 1 {
		t.Fatalf("Stats = (%d, %d), want (2, 1)", hits, misses)
	}

	// Every insertion beyond the bound evicts exactly one entry, the oldest.
	c3 := NewCache(3)
	for i := 0; i < 10; i++ {
		c3.PutBinned(string(rune('a'+i)), &ml.BinnedMatrix{N: i})
		if want := min(i+1, 3); c3.Len() != want {
			t.Fatalf("after %d puts Len = %d, want %d", i+1, c3.Len(), want)
		}
	}
	for i := 0; i < 10; i++ {
		if _, ok := c3.GetBinned(string(rune('a' + i))); ok != (i >= 7) {
			t.Fatalf("entry %c present = %v after 10 puts into a 3-entry cache", 'a'+i, ok)
		}
	}

	// A nil cache is inert but safe.
	var nc *Cache
	if _, ok := nc.GetBinned("x"); ok {
		t.Fatal("nil cache returned a hit")
	}
	nc.PutBinned("x", nil)
	if h, m := nc.Stats(); h != 0 || m != 0 || nc.Len() != 0 {
		t.Fatal("nil cache tracked state")
	}
}

// TestExamplesKeySensitivity: the fingerprint must distinguish different
// lines, weeks, orders and lengths — anything that changes encoding.
func TestExamplesKeySensitivity(t *testing.T) {
	base := []Example{{Line: 1, Week: 30}, {Line: 2, Week: 31}}
	same := []Example{{Line: 1, Week: 30}, {Line: 2, Week: 31}}
	if ExamplesKey(base) != ExamplesKey(same) {
		t.Fatal("identical example lists hash differently")
	}
	variants := [][]Example{
		{{Line: 2, Week: 30}, {Line: 2, Week: 31}},
		{{Line: 1, Week: 31}, {Line: 2, Week: 31}},
		{{Line: 2, Week: 31}, {Line: 1, Week: 30}},
		{{Line: 1, Week: 30}},
		{},
	}
	for vi, v := range variants {
		if ExamplesKey(v) == ExamplesKey(base) {
			t.Fatalf("variant %d collides with base", vi)
		}
	}
}

// TestEncodeCachedMatchesEncode: cached encoding must be byte-for-byte the
// plain Encode result, for both the base and quadratic configurations, on
// hit and miss alike — and quadratic callers must reuse the cached base
// (one base encode, two results).
func TestEncodeCachedMatchesEncode(t *testing.T) {
	ds := cacheDataset(t)
	ix := data.NewTicketIndex(ds)
	examples := ExamplesForWeeks(ds, []int{30, 31})

	for _, quad := range []bool{false, true} {
		cfg := Config{Quadratic: quad}
		want, err := Encode(ds, ix, examples, cfg)
		if err != nil {
			t.Fatal(err)
		}
		c := NewCache(0)
		first, err := EncodeCached(c, ds, ix, examples, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, want) {
			t.Fatalf("quad=%v: cached miss result differs from Encode", quad)
		}
		second, err := EncodeCached(c, ds, ix, examples, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if second != first {
			t.Fatalf("quad=%v: cache hit returned a different object", quad)
		}
		if hits, _ := c.Stats(); hits == 0 {
			t.Fatalf("quad=%v: second encode did not hit", quad)
		}
	}

	// Base-then-quadratic shares the base encode: the quadratic call's base
	// lookup must hit the entry the plain call stored.
	c := NewCache(0)
	baseEnc, err := EncodeCached(c, ds, ix, examples, Config{})
	if err != nil {
		t.Fatal(err)
	}
	h0, _ := c.Stats()
	quadEnc, err := EncodeCached(c, ds, ix, examples, Config{Quadratic: true})
	if err != nil {
		t.Fatal(err)
	}
	h1, _ := c.Stats()
	if h1 <= h0 {
		t.Fatal("quadratic encode did not reuse the cached base")
	}
	if len(quadEnc.Cols) <= len(baseEnc.Cols) {
		t.Fatal("quadratic encode added no columns")
	}
	// Sharing must not mutate the cached base entry.
	again, err := EncodeCached(c, ds, ix, examples, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if again != baseEnc || len(again.Cols) != len(baseEnc.Cols) {
		t.Fatal("quadratic extension mutated the cached base encode")
	}
	for i := range baseEnc.Cols {
		if &quadEnc.Cols[i].Values[0] != &baseEnc.Cols[i].Values[0] {
			t.Fatalf("quadratic encode copied base column %d instead of sharing it", i)
		}
	}
}

// TestEncodeCachedGenerationInvalidates: the cache key covers the dataset
// generation, so a mutable source (the serving store) that stamps each
// snapshot with a new generation never gets stale encodes — the bug class
// where re-ingested tests were scored off the previous contents.
func TestEncodeCachedGenerationInvalidates(t *testing.T) {
	ds := cacheDataset(t)
	ix := data.NewTicketIndex(ds)
	examples := ExamplesForWeeks(ds, []int{30})
	c := NewCache(0)

	stale, err := EncodeCached(c, ds, ix, examples, Config{})
	if err != nil {
		t.Fatal(err)
	}

	// New contents, new generation — as a store ingest produces.
	for l := 0; l < ds.NumLines; l++ {
		ds.Measurements[30*ds.NumLines+l].F[0] += 100
	}
	ds.Generation++
	want, err := Encode(ds, ix, examples, Config{})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := EncodeCached(c, ds, ix, examples, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if fresh == stale {
		t.Fatal("new generation served the previous generation's encode")
	}
	if !reflect.DeepEqual(fresh, want) {
		t.Fatal("new-generation encode differs from plain Encode of the new contents")
	}

	// Both generations stay addressable: re-asking for the old one hits it.
	ds.Generation--
	back, err := EncodeCached(c, ds, ix, examples, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if back != stale {
		t.Fatal("previous generation's entry was lost")
	}
}

// TestEncodeCachedNilCache: a nil cache must degrade to plain Encode.
func TestEncodeCachedNilCache(t *testing.T) {
	ds := cacheDataset(t)
	ix := data.NewTicketIndex(ds)
	examples := ExamplesForWeeks(ds, []int{30})
	want, err := Encode(ds, ix, examples, Config{Quadratic: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := EncodeCached(nil, ds, ix, examples, Config{Quadratic: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("nil-cache EncodeCached differs from Encode")
	}
}
