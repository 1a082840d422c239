// Package chaos is the deterministic fault-injection layer for the serving
// subsystem. It plugs into the seams internal/serve exposes (the Source
// feed contract and serve.FaultHooks) and fires the failure modes a real
// telemetry-driven deployment sees: transient feed errors, truncated and
// corrupted batches, flaky ingest, failing snapshot rebuilds, slow shards,
// slow requests, and reload probes that cannot run.
//
// Everything is driven by seeded SplitMix64 streams (internal/rng), so a
// fault schedule replays bit-identically from its seed: the soak tests run
// the pipeline under ≥10% fault rates and then assert the run converged to
// the exact state of a clean replay — which is only a meaningful assertion
// because the faults themselves are reproducible.
//
// Faults are bounded by construction: no site fails more than MaxConsecutive
// times in a row, so a retry loop with a larger attempt budget is guaranteed
// to make progress. That mirrors the operating regime the paper's weekly
// loop assumes — outages clear; the system must ride through them.
package chaos

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"nevermind/internal/data"
	"nevermind/internal/drift"
	"nevermind/internal/fleet"
	"nevermind/internal/rng"
	"nevermind/internal/serve"
)

// Config sets the per-site fault probabilities (0 disables a mode) and the
// latency envelopes. Rates are independent per attempt; the source modes
// (SourceError, PartialBatch, MalformedBatch) partition one draw, so their
// sum must stay below 1.
type Config struct {
	// Seed drives every fault decision; same seed, same schedule.
	Seed uint64

	// SourceError is P(a source pull fails outright, delivering nothing).
	SourceError float64
	// PartialBatch is P(a pull delivers a truncated batch together with a
	// transport error — a cut-short read the feed reports).
	PartialBatch float64
	// MalformedBatch is P(a pull silently delivers corrupt records; the
	// store's validation rejects the batch whole and the week re-pulls).
	MalformedBatch float64

	// IngestError is P(a validated ingest batch fails transiently before
	// any state change).
	IngestError float64
	// SnapshotError is P(a snapshot rebuild fails; readers keep the last
	// good snapshot).
	SnapshotError float64
	// ReloadError is P(a model hot-reload probe fails; the old generation
	// keeps serving).
	ReloadError float64

	// SlowShard is P(a shard read during a snapshot build stalls), up to
	// ShardDelay.
	SlowShard  float64
	ShardDelay time.Duration
	// SlowRequest is P(an API request stalls in the handler), up to
	// RequestDelay.
	SlowRequest  float64
	RequestDelay time.Duration

	// RetrainError is P(a drift-loop challenger training attempt fails —
	// the trainer host OOMs, the job is preempted. The loop must retry on a
	// later tick and still produce the same challenger (the training window
	// is anchored at trip time).
	RetrainError float64

	// ShardKill is P(a fleet gateway's request to a shard daemon finds it
	// unreachable — the scaled-out analogue of a machine dying). Bounded by
	// MaxConsecutive like every site, so a killed shard always comes back
	// within the gateway's retry budget or a few probe ticks.
	ShardKill float64

	// MaxConsecutive caps how many times in a row any one site may fail
	// before it is forced to succeed (default 3). Keep it below the
	// pipeline's RetryConfig.MaxAttempts or retries will exhaust.
	MaxConsecutive int

	// Sleep replaces time.Sleep for latency injection (tests pass fakes).
	Sleep func(time.Duration)
}

// Stats counts the faults actually injected, per mode.
type Stats struct {
	SourceErrors     int64
	PartialBatches   int64
	MalformedBatches int64
	IngestFaults     int64
	SnapshotFaults   int64
	ReloadFaults     int64
	SlowShards       int64
	SlowRequests     int64
	ShardKills       int64
	RetrainFaults    int64
}

// Total sums every injected fault.
func (s Stats) Total() int64 {
	return s.SourceErrors + s.PartialBatches + s.MalformedBatches +
		s.IngestFaults + s.SnapshotFaults + s.ReloadFaults +
		s.SlowShards + s.SlowRequests + s.ShardKills + s.RetrainFaults
}

// site labels partition the seed into independent decision streams.
const (
	siteSource uint64 = iota + 1
	siteIngestTests
	siteIngestTickets
	siteSnapshot
	siteReload
	siteShard
	siteRequest
	// siteShardKill is appended after the original sites so arming the
	// fleet family never perturbs the seeded streams of existing soaks.
	siteShardKill
	// siteRetrain likewise: appended last so the drift family leaves every
	// earlier seeded stream untouched.
	siteRetrain
)

// Injector owns the fault processes. Safe for concurrent use: each site
// draws from its own sequence-numbered stream and tracks its own
// consecutive-failure bound.
type Injector struct {
	cfg Config

	srcErrs, partials, malformed atomic.Int64
	ingestFaults                 atomic.Int64
	snapshotFaults               atomic.Int64
	reloadFaults                 atomic.Int64
	slowShards, slowRequests     atomic.Int64

	ingestTestsSite   faultSite
	ingestTicketsSite faultSite
	snapshotSite      faultSite
	reloadSite        faultSite
	shardSite         faultSite
	requestSite       faultSite
	shardKillSite     faultSite
	retrainSite       faultSite

	shardKills    atomic.Int64
	retrainFaults atomic.Int64
}

// faultSite is one independent fault process: a decision sequence plus the
// consecutive-failure bound.
type faultSite struct {
	label       uint64
	seq         atomic.Uint64
	consecutive atomic.Int64
}

// New builds an injector. Panics if the source-mode rates sum to >= 1,
// which would make clean delivery impossible.
func New(cfg Config) *Injector {
	if cfg.SourceError+cfg.PartialBatch+cfg.MalformedBatch >= 1 {
		panic("chaos: source fault rates must sum below 1")
	}
	if cfg.MaxConsecutive <= 0 {
		cfg.MaxConsecutive = 3
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	in := &Injector{cfg: cfg}
	in.ingestTestsSite.label = siteIngestTests
	in.ingestTicketsSite.label = siteIngestTickets
	in.snapshotSite.label = siteSnapshot
	in.reloadSite.label = siteReload
	in.shardSite.label = siteShard
	in.requestSite.label = siteRequest
	in.shardKillSite.label = siteShardKill
	in.retrainSite.label = siteRetrain
	return in
}

// Stats snapshots the injected-fault counters.
func (in *Injector) Stats() Stats {
	return Stats{
		SourceErrors:     in.srcErrs.Load(),
		PartialBatches:   in.partials.Load(),
		MalformedBatches: in.malformed.Load(),
		IngestFaults:     in.ingestFaults.Load(),
		SnapshotFaults:   in.snapshotFaults.Load(),
		ReloadFaults:     in.reloadFaults.Load(),
		SlowShards:       in.slowShards.Load(),
		SlowRequests:     in.slowRequests.Load(),
		ShardKills:       in.shardKills.Load(),
		RetrainFaults:    in.retrainFaults.Load(),
	}
}

// roll decides whether the site fails this time: a seeded draw under rate,
// clamped by the consecutive-failure bound. The clamp is a CAS loop so
// concurrent rolls cannot both pass the bound check and push the run past
// MaxConsecutive.
func (in *Injector) roll(site *faultSite, rate float64) bool {
	if rate <= 0 {
		return false
	}
	seq := site.seq.Add(1)
	if rng.Derive(in.cfg.Seed, site.label, seq).Float64() < rate {
		for {
			n := site.consecutive.Load()
			if n >= int64(in.cfg.MaxConsecutive) {
				break
			}
			if site.consecutive.CompareAndSwap(n, n+1) {
				return true
			}
		}
	}
	site.consecutive.Store(0)
	return false
}

// delayFor returns a deterministic stall in (0, max] for the site's next
// decision, or 0 for no stall.
func (in *Injector) delayFor(site *faultSite, rate float64, max time.Duration) time.Duration {
	if rate <= 0 || max <= 0 {
		return 0
	}
	seq := site.seq.Add(1)
	r := rng.Derive(in.cfg.Seed, site.label, seq)
	if r.Float64() >= rate {
		return 0
	}
	return time.Duration(r.Float64() * float64(max))
}

var (
	errIngestFault   = errors.New("chaos: injected ingest fault")
	errSnapshotFault = errors.New("chaos: injected snapshot-rebuild fault")
	errReloadFault   = errors.New("chaos: injected reload-probe fault")
)

// Hooks returns the serve.FaultHooks wiring for the store, reload and
// request seams. Pass it in serve.Config.Faults.
func (in *Injector) Hooks() *serve.FaultHooks {
	return &serve.FaultHooks{
		IngestTests: func(n int) error {
			if in.roll(&in.ingestTestsSite, in.cfg.IngestError) {
				in.ingestFaults.Add(1)
				return serve.Transient(errIngestFault)
			}
			return nil
		},
		IngestTickets: func(n int) error {
			if in.roll(&in.ingestTicketsSite, in.cfg.IngestError) {
				in.ingestFaults.Add(1)
				return serve.Transient(errIngestFault)
			}
			return nil
		},
		SnapshotBuild: func(version uint64) error {
			if in.roll(&in.snapshotSite, in.cfg.SnapshotError) {
				in.snapshotFaults.Add(1)
				return serve.Transient(errSnapshotFault)
			}
			return nil
		},
		ReloadProbe: func() error {
			if in.roll(&in.reloadSite, in.cfg.ReloadError) {
				in.reloadFaults.Add(1)
				return serve.Transient(errReloadFault)
			}
			return nil
		},
		ShardRead: func(shard int) {
			if d := in.delayFor(&in.shardSite, in.cfg.SlowShard, in.cfg.ShardDelay); d > 0 {
				in.slowShards.Add(1)
				in.cfg.Sleep(d)
			}
		},
		Request: func(endpoint string) {
			if d := in.delayFor(&in.requestSite, in.cfg.SlowRequest, in.cfg.RequestDelay); d > 0 {
				in.slowRequests.Add(1)
				in.cfg.Sleep(d)
			}
		},
	}
}

var errRetrainFault = errors.New("chaos: injected retrain fault")

// DriftHooks returns the fault wiring for the drift loop's retrain seam.
// Pass it in drift.Config.Hooks. A hit aborts that tick's challenger
// training attempt; the loop retries on a later tick against the same
// anchored training window, so the eventual challenger is identical.
func (in *Injector) DriftHooks() *drift.FaultHooks {
	return &drift.FaultHooks{
		Retrain: func(week int) error {
			if in.roll(&in.retrainSite, in.cfg.RetrainError) {
				in.retrainFaults.Add(1)
				return fmt.Errorf("%w: week %d", errRetrainFault, week)
			}
			return nil
		},
	}
}

// errShardKill is what an unreachable shard looks like to the gateway's
// client: a failed round trip, retried like any network error.
var errShardKill = errors.New("chaos: injected shard kill")

// FleetHooks returns the fault wiring for a fleet gateway's shard-request
// seam. Pass it in fleet.Config.Hooks. Each kill fails one shard round trip
// before it leaves the client; a burst of them (bounded by MaxConsecutive)
// is a dead machine the gateway must ride through — degraded ranks, retried
// ingests — until the site clears.
func (in *Injector) FleetHooks() *fleet.FaultHooks {
	return &fleet.FaultHooks{
		ShardRequest: func(shard, route string) error {
			if in.roll(&in.shardKillSite, in.cfg.ShardKill) {
				in.shardKills.Add(1)
				return fmt.Errorf("%w: shard %s %s", errShardKill, shard, route)
			}
			return nil
		},
	}
}

// corruptWeek is the out-of-range week stamped onto corrupted records; the
// store's validation is guaranteed to reject it, so a malformed batch can
// never be half-applied.
const corruptWeek = data.Weeks
