// Package harness holds the pieces of the fleet benchmark that are pure
// functions: the open-loop schedule, the percentile rules, and /metrics
// parsing. Everything here is deterministic and unit-tested; the load
// generator and the ladder only wire it to processes and clocks.
package harness

import (
	"hash/fnv"
	"math"
	"sort"
	"time"
)

// Class is one kind of operation the generator sends.
type Class uint8

const (
	Lookup1   Class = iota // POST /v1/score, 1 line
	Lookup100              // POST /v1/score, 100 distinct lines
	Rank                   // GET /v1/rank?n=100
	Locate                 // POST /v1/locate
	Bulk                   // POST /v1/score, the whole population
	Chunk                  // POST /v1/ingest, one chunk of a week's tests
	Close                  // GET /v1/rank?n=400 until it holds the whole week
	NumClasses
)

var classNames = [NumClasses]string{"lookup1", "lookup100", "rank", "locate", "bulk", "chunk", "close"}

func (c Class) String() string { return classNames[c] }

// Interactive reports whether c is an interactive read held to the latency
// limit.
func (c Class) Interactive() bool { return c <= Locate }

// Op is one scheduled operation. Due is its offset from the start of the
// measured window; latency is timed from it, not from the moment the op
// reached a connection, so a generator that falls behind cannot hide the
// delay (coordinated omission).
type Op struct {
	Due   time.Duration
	Class Class
	// WeekBack selects the target week relative to the latest complete week
	// (0 = latest, 1..3 = the weeks before it).
	WeekBack int
	// Lines are the target lines: one for Lookup1 and Locate, 100 distinct
	// ones for Lookup100, none otherwise.
	Lines []int32
}

// Mix parameterises an open-loop schedule.
type Mix struct {
	Rate      float64       // interactive reads per second (Poisson arrivals)
	Window    time.Duration // schedule length
	Lines     int           // population size; target lines are drawn from [0, Lines)
	BulkEvery time.Duration // one full-population score per period (0 = none)
}

// Read mix shares, in percent: 60% 1-line score, 15% 100-line score, 15%
// rank top-100, 10% locate. 75% of score requests target the latest week,
// 25% one of the three weeks before it.
const (
	pctLookup1   = 60
	pctLookup100 = 15
	pctRank      = 15
	batchLines   = 100
)

// Schedule returns the ops of one run, sorted by due time. It is a pure
// function of (seed, workload, mix): the same arguments give the same ops.
func Schedule(seed uint64, workload string, m Mix) []Op {
	r := newRand(seed, workload)
	var ops []Op
	if m.Rate > 0 {
		mean := float64(time.Second) / m.Rate
		for t := r.exp(mean); t < float64(m.Window); t += r.exp(mean) {
			op := Op{Due: time.Duration(t)}
			switch p := r.intn(100); {
			case p < pctLookup1:
				op.Class = Lookup1
			case p < pctLookup1+pctLookup100:
				op.Class = Lookup100
			case p < pctLookup1+pctLookup100+pctRank:
				op.Class = Rank
			default:
				op.Class = Locate
			}
			switch op.Class {
			case Lookup1, Locate:
				op.Lines = []int32{int32(r.intn(m.Lines))}
			case Lookup100:
				op.Lines = r.distinct(batchLines, m.Lines)
			}
			if op.Class == Lookup1 || op.Class == Lookup100 {
				if r.intn(4) == 0 {
					op.WeekBack = 1 + r.intn(3)
				}
			}
			ops = append(ops, op)
		}
	}
	if m.BulkEvery > 0 {
		for t := m.BulkEvery / 2; t < m.Window; t += m.BulkEvery {
			ops = append(ops, Op{Due: t, Class: Bulk})
		}
	}
	sort.SliceStable(ops, func(a, b int) bool { return ops[a].Due < ops[b].Due })
	return ops
}

// rand is splitmix64 keyed by (seed, workload): small, fast, and stable
// across Go releases, which math/rand's generators do not promise.
type rand struct{ s uint64 }

func newRand(seed uint64, workload string) *rand {
	h := fnv.New64a()
	h.Write([]byte(workload))
	return &rand{s: seed ^ h.Sum64()}
}

func (r *rand) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *rand) intn(n int) int { return int(r.next() % uint64(n)) }

// exp draws an exponential gap with the given mean.
func (r *rand) exp(mean float64) float64 {
	u := (float64(r.next()>>11) + 0.5) / (1 << 53) // (0,1)
	return -mean * math.Log(u)
}

// distinct draws k distinct values from [0, n), ascending.
func (r *rand) distinct(k, n int) []int32 {
	seen := make(map[int32]bool, k)
	out := make([]int32, 0, k)
	for len(out) < k {
		v := int32(r.intn(n))
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}
