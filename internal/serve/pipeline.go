package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"nevermind/internal/atds"
	"nevermind/internal/core"
	"nevermind/internal/data"
	"nevermind/internal/obs"
	"nevermind/internal/rng"
	"nevermind/internal/sim"
)

// Source is the pipeline's input feed: one weekly batch per successful Next,
// ok == false on exhaustion. The error return is the seam a real telemetry
// feed (and the chaos layer standing in for one) needs: a pull can fail
// transiently, or deliver a batch that later fails ingest validation. The
// re-delivery contract: after a pull error or a bad-batch rejection, the
// next Next call re-serves the same week — a week is consumed only once it
// has been delivered cleanly. A failed pull still sets the batch's Week to
// the pending week, so the retry, its backoff jitter, its span and the
// error all name the week being retried. The simulator's never-failing
// stream trivially satisfies this because it never errors.
type Source interface {
	Remaining() int
	Next() (sim.Batch, bool, error)
}

// simFeed adapts the simulator's infallible stream to the Source contract.
type simFeed struct{ src *sim.Source }

func (f simFeed) Remaining() int { return f.src.Remaining() }
func (f simFeed) Next() (sim.Batch, bool, error) {
	b, ok := f.src.Next()
	return b, ok, nil
}

// SimFeed wraps a simulator stream as a pipeline Source.
func SimFeed(src *sim.Source) Source { return simFeed{src} }

// RetryConfig bounds how hard the pipeline fights a failing week before
// giving up: each of a week's operations (pull, ingest, snapshot refresh)
// shares one attempt budget, and failed attempts back off exponentially
// with deterministic jitter.
type RetryConfig struct {
	// MaxAttempts is the per-week attempt budget (default 6).
	MaxAttempts int
	// BaseDelay is the first backoff (default 50ms); each retry doubles it
	// up to MaxDelay (default 2s). The actual sleep is jittered uniformly
	// in [delay/2, delay) from a seeded stream, so a fleet of retriers
	// cannot synchronise into a thundering herd yet a given seed replays
	// the exact same schedule.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Seed drives the jitter stream.
	Seed uint64
}

func (r RetryConfig) withDefaults() RetryConfig {
	if r.MaxAttempts <= 0 {
		r.MaxAttempts = 6
	}
	if r.BaseDelay <= 0 {
		r.BaseDelay = 50 * time.Millisecond
	}
	if r.MaxDelay <= 0 {
		r.MaxDelay = 2 * time.Second
	}
	return r
}

// backoffFor returns the jittered exponential delay for the given attempt
// (1-based): min(Base<<(attempt-1), Max) scaled into [1/2, 1).
func (r RetryConfig) backoffFor(op string, week, attempt int) time.Duration {
	d := r.BaseDelay << uint(attempt-1)
	if d > r.MaxDelay || d <= 0 { // <= 0 guards shift overflow
		d = r.MaxDelay
	}
	var oph uint64
	for _, c := range op {
		oph = oph*131 + uint64(c)
	}
	j := rng.Derive(r.Seed, oph, uint64(week), uint64(attempt)).Float64()
	return d/2 + time.Duration(float64(d/2)*j)
}

// Backoff exposes the jittered schedule to other retry loops (the fleet
// gateway's shard client) so the whole system backs off with one policy
// and replays deterministically from one seed. The defaulting mirrors what
// the pipeline itself applies.
func (r RetryConfig) Backoff(op string, key, attempt int) time.Duration {
	return r.withDefaults().backoffFor(op, key, attempt)
}

// RetryEvent describes one failed attempt the pipeline is about to back off
// from; OnRetry observers get it before the sleep.
type RetryEvent struct {
	Week    int
	Op      string // "pull", "ingest", "snapshot"
	Attempt int
	Err     error
	Backoff time.Duration
}

// Backend is what the weekly loop runs against: a local daemon (*Server) or
// a fleet gateway. The loop owns everything else — retries, backoff, the
// exactly-once guard, the ATDS queue, reports and hooks — and records its
// stage spans and nevermind_pipeline_* series into Registry, plus the tracer
// of a backend that has one (a Tracer() *obs.Tracer method).
type Backend interface {
	// Ingest applies one week's records and reports the counts and the
	// post-ingest version. Errors classify as for the store: ErrBadBatch
	// (re-pull the week), transient (re-send the batch), else terminal.
	Ingest(tests []TestRecord, tickets []TicketRecord) (IngestReply, error)
	// FreshRank ranks week over state that includes the ingest which
	// produced version. State that still trails it is ErrStaleSnapshot;
	// that and transient errors are retried, anything else is terminal.
	FreshRank(week int, version uint64) (Ranking, error)
	Registry() *obs.Registry
}

// Ranking is one week's answer from FreshRank.
type Ranking struct {
	// GridLines is the width of the line grid; it sizes the ATDS queue.
	GridLines int
	// Snapshot is the fresh local snapshot the ranking reads, nil on a
	// remote backend. OnSnapshot fires only when it is set.
	Snapshot *Snapshot
	// Top returns the budgeted top-N lines, best first; nil when the week
	// has no lines to rank. It runs only for a week the loop dispatches, so
	// a backend may defer its scoring to it.
	Top func() ([]data.LineID, error)
}

// ErrStaleSnapshot is the retryable "the ranking state trails the ingest"
// condition: on a daemon a failed rebuild left the old snapshot serving, on
// a fleet some shard has not caught up.
var ErrStaleSnapshot = errors.New("snapshot stale after ingest")

// FreshRank implements Backend over the local store: the snapshot must be
// at least version, and Top scores the week's table and cuts the ranked
// population at the predictor's budget. The table is shared with the HTTP
// handlers, so when the API already ranked this (snapshot, week) Top is a
// lookup.
func (s *Server) FreshRank(week int, version uint64) (Ranking, error) {
	sn := s.Store().Snapshot()
	if sn == nil || sn.Version < version {
		return Ranking{}, ErrStaleSnapshot
	}
	rk := Ranking{GridLines: sn.DS.NumLines, Snapshot: sn}
	if len(sn.LinesAt(week)) > 0 {
		rk.Top = func() ([]data.LineID, error) {
			models := s.Models()
			tab, err := sn.scoreTable(models, week)
			if err != nil {
				return nil, err
			}
			ranked := tab.rankedLines(sn)
			return ranked[:min(models.Pred.Cfg.BudgetN, len(ranked))], nil
		}
	}
	return rk, nil
}

// PipelineConfig drives the weekly serving loop.
type PipelineConfig struct {
	// Source feeds one simulated week per tick (the production stand-in for
	// the telemetry feed). Wrap a *sim.Source with SimFeed.
	Source Source
	// Queue is the ATDS work queue predictions are dispatched into; nil
	// builds a default-sized queue on the first batch.
	Queue *atds.Queue
	// Tick is the wall-clock interval between simulated weeks; <= 0 runs
	// the whole stream back to back (the smoke-test mode).
	Tick time.Duration
	// Retry bounds the per-week retry budget and backoff schedule.
	Retry RetryConfig
	// Sleep, when set, replaces time.Sleep for backoff waits — the soak
	// tests inject an instant fake to run years of faults in seconds.
	Sleep func(time.Duration)
	// OnSnapshot, when set, observes each newly completed week with the
	// fresh snapshot it was ranked from — the drift monitors' feed. It runs
	// after the exactly-once guard, so a re-delivered or replayed week is
	// never observed twice.
	OnSnapshot func(sn *Snapshot, week int)
	// OnWeek, when set, observes each completed week.
	OnWeek func(WeekReport)
	// OnRetry, when set, observes each backed-off attempt.
	OnRetry func(RetryEvent)
}

// WeekReport is what one pipeline tick did: the week it ingested and
// ranked, the data volumes, the dispatch outcomes of the seven days the
// ATDS queue advanced, and how many faults it had to retry through.
type WeekReport struct {
	Week            int
	IngestedTests   int
	IngestedTickets int
	Submitted       int // predicted jobs pushed into ATDS
	Pending         int // queue depth after the week's dispatching
	Retries         int // attempts that failed and were retried
	Stats           atds.Stats
}

// Pipeline is the weekly loop of §3.2 run against a live backend: every
// tick it pulls the next week of line tests from the source, ingests them,
// ranks the population with the current model generation, submits the
// budgeted TopN into the ATDS queue alongside the week's customer tickets,
// advances the queue through the seven days, and accumulates outcome stats.
//
// The loop is built to survive a misbehaving feed: transient pull and
// ingest errors retry with bounded exponential backoff, a batch that fails
// validation is discarded and the week re-pulled, and a stale ranking state
// (failed rebuild, lagging shard) is retried until fresh — so a ranking
// never runs over partial data. Only an error that persists through the
// whole attempt budget, or one not marked transient, stops the loop; each
// week is dispatched into ATDS exactly once.
type Pipeline struct {
	b         Backend
	cfg       PipelineConfig
	m         *pipelineMetrics
	tracer    *obs.Tracer
	total     atds.Stats
	lastWeek  int // last week dispatched into ATDS (exactly-once guard)
	haveWeeks bool
}

// NewPipeline binds a pipeline to a backend.
func NewPipeline(b Backend, cfg PipelineConfig) (*Pipeline, error) {
	if cfg.Source == nil {
		return nil, fmt.Errorf("serve: pipeline needs a source")
	}
	cfg.Retry = cfg.Retry.withDefaults()
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	p := &Pipeline{b: b, cfg: cfg, m: newPipelineMetrics(b.Registry())}
	if t, ok := b.(interface{ Tracer() *obs.Tracer }); ok {
		p.tracer = t.Tracer()
	}
	return p, nil
}

// Totals returns the outcome stats accumulated across all completed weeks.
func (p *Pipeline) Totals() atds.Stats { return p.total }

// Run executes the loop until the source is exhausted or ctx is cancelled.
func (p *Pipeline) Run(ctx context.Context) error {
	var tick <-chan time.Time
	if p.cfg.Tick > 0 {
		t := time.NewTicker(p.cfg.Tick)
		defer t.Stop()
		tick = t.C
	}
	for p.cfg.Source.Remaining() > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		if _, err := p.Step(); err != nil {
			return err
		}
		if tick != nil && p.cfg.Source.Remaining() > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-tick:
			}
		}
	}
	return nil
}

// retry records a failed attempt, backs off, and reports whether the budget
// still has room. attempt is the week's running attempt counter.
func (p *Pipeline) retry(rep *WeekReport, op string, week int, attempt *int, cause error) bool {
	*attempt++
	if *attempt >= p.cfg.Retry.MaxAttempts {
		return false
	}
	d := p.cfg.Retry.backoffFor(op, week, *attempt)
	rep.Retries++
	p.m.pipelineRetries.Add(1)
	p.m.retriesByOp.With(op).Add(1)
	if p.cfg.OnRetry != nil {
		p.cfg.OnRetry(RetryEvent{Week: week, Op: op, Attempt: *attempt, Err: cause, Backoff: d})
	}
	p.cfg.Sleep(d)
	return true
}

// stageSpan couples one stage execution's trace span with its duration
// observation: end commits the span to the ring and feeds the per-stage
// latency histogram in one call, so the two can never disagree about what
// counts as one execution.
type stageSpan struct {
	span *obs.ActiveSpan
	obsv func(time.Duration)
	t0   time.Time
	done bool
}

// beginStage opens a span for one execution of a pipeline stage.
func (p *Pipeline) beginStage(stage string, week int) *stageSpan {
	return &stageSpan{
		span: p.tracer.Start(stage, week),
		obsv: p.m.stageDur.With(stage).Observe,
		t0:   time.Now(),
	}
}

func (ss *stageSpan) end() {
	if ss.done {
		return
	}
	ss.done = true
	ss.span.End()
	ss.obsv(time.Since(ss.t0))
}

// Step runs one tick: ingest the next week, rank, dispatch, advance. It
// returns ok == false once the source is exhausted.
func (p *Pipeline) Step() (ok bool, err error) {
	var rep WeekReport
	var batch sim.Batch
	var ing IngestReply
	attempt := 0

	// Pull + ingest with a shared bounded attempt budget. Error classes:
	//   - transient pull error: nothing was delivered; back off, re-pull.
	//   - bad batch (ErrBadBatch): the backend rejected the delivery whole;
	//     back off, re-pull — the feed re-serves the week.
	//   - transient ingest error: the validated batch hit an injected or
	//     real infrastructure fault (a down shard, a shed); back off and
	//     re-ingest the same batch (ingest is idempotent: test records
	//     overwrite per (line, week), tickets dedup).
	//   - anything else is terminal for the loop.
pull:
	for {
		psp := p.beginStage("pull", rep.Week)
		b, more, perr := p.cfg.Source.Next()
		if !more {
			psp.end()
			return false, nil
		}
		batch = b
		rep.Week = batch.Week
		psp.span.Week(batch.Week).Attempt(attempt + 1).Fail(perr)
		psp.end()
		if perr != nil {
			if !IsTransient(perr) {
				return false, fmt.Errorf("serve: pipeline week %d pull: %w", batch.Week, perr)
			}
			if !p.retry(&rep, "pull", batch.Week, &attempt, perr) {
				return false, fmt.Errorf("serve: pipeline week %d pull failed after %d attempts: %w",
					batch.Week, attempt, perr)
			}
			continue
		}
		tests, tickets := batchRecords(&batch)
		for {
			isp := p.beginStage("ingest", batch.Week)
			var ierr error
			ing, ierr = p.b.Ingest(tests, tickets)
			isp.span.Attempt(attempt + 1).Fail(ierr)
			isp.end()
			if ierr == nil {
				break pull
			}
			switch {
			case IsBadBatch(ierr):
				if !p.retry(&rep, "ingest", batch.Week, &attempt, ierr) {
					return false, fmt.Errorf("serve: pipeline week %d: bad batches exhausted %d attempts: %w",
						batch.Week, attempt, ierr)
				}
				continue pull // discard the delivery, re-pull the week
			case IsTransient(ierr):
				if !p.retry(&rep, "ingest", batch.Week, &attempt, ierr) {
					return false, fmt.Errorf("serve: pipeline week %d ingest failed after %d attempts: %w",
						batch.Week, attempt, ierr)
				}
				continue // same batch, retry the ingest
			default:
				return false, fmt.Errorf("serve: pipeline week %d ingest: %w", batch.Week, ierr)
			}
		}
	}
	rep.IngestedTests, rep.IngestedTickets = ing.IngestedTests, ing.IngestedTickets

	// The ranking must see this week's data: state older than the version
	// our ingest produced means a rebuild failed or a shard lags (the API
	// keeps serving the stale state; the pipeline retries until fresh).
	var rk Ranking
	for {
		ssp := p.beginStage("snapshot", batch.Week)
		var rerr error
		rk, rerr = p.b.FreshRank(batch.Week, ing.Version)
		if rerr == nil {
			ssp.end()
			break
		}
		stale := errors.Is(rerr, ErrStaleSnapshot)
		ssp.span.Attempt(attempt + 1).Fail(rerr)
		if stale {
			// Degraded: this attempt ran against stale state.
			ssp.span.Degraded()
		}
		ssp.end()
		if !stale && !IsTransient(rerr) {
			return false, fmt.Errorf("serve: pipeline week %d rank: %w", batch.Week, rerr)
		}
		if !p.retry(&rep, "snapshot", batch.Week, &attempt, rerr) {
			return false, fmt.Errorf("serve: pipeline week %d: %w after %d attempts",
				batch.Week, rerr, attempt)
		}
	}

	if p.cfg.Queue == nil {
		q, err := atds.NewQueue(atds.DefaultConfig(rk.GridLines), data.SaturdayOf(batch.Week))
		if err != nil {
			return false, err
		}
		p.cfg.Queue = q
	}

	// Exactly-once dispatch: a week enters ATDS the first time it completes
	// ingest+rank, never again (a re-served or replayed week would
	// otherwise double the dispatch load).
	if p.haveWeeks && batch.Week <= p.lastWeek {
		return true, nil
	}

	// Saturday ranking run: budgeted TopN into the dispatch queue.
	if rk.Top != nil {
		scsp := p.beginStage("score", batch.Week)
		top, err := rk.Top()
		scsp.span.Fail(err)
		scsp.end()
		if err != nil {
			return false, fmt.Errorf("serve: pipeline week %d rank: %w", batch.Week, err)
		}
		rksp := p.beginStage("rank", batch.Week)
		for rank, l := range top {
			p.cfg.Queue.Submit(l, atds.PriorityPredicted, rank)
		}
		rep.Submitted = len(top)
		rksp.end()
	}
	// The week's customer tickets contend for the same capacity and always
	// win it (§3.2). The first batch also backfills the full ticket history
	// for the time-since-ticket features; only tickets that actually arrived
	// this week are new work for the queue.
	dsp := p.beginStage("dispatch", batch.Week)
	weekStart := data.SaturdayOf(batch.Week) - 6
	for _, t := range batch.Tickets {
		if t.Day >= weekStart {
			p.cfg.Queue.Submit(t.Line, atds.PriorityCustomer, 0)
		}
	}
	p.lastWeek, p.haveWeeks = batch.Week, true

	// Advance the dispatch system through the week.
	var outcomes []atds.Outcome
	for d := 0; d < 7; d++ {
		outcomes = append(outcomes, p.cfg.Queue.Advance()...)
	}
	rep.Stats = atds.Summarize(outcomes)
	rep.Pending = p.cfg.Queue.Pending()
	p.total.Add(rep.Stats)
	dsp.end()

	m := p.m
	m.pipelineTicks.Add(1)
	m.pipelineWeek.Set(int64(batch.Week))
	m.pipelineSubmitted.Add(int64(rep.Submitted))
	m.pipelineWorked.Add(int64(rep.Stats.Predicted))
	m.pipelineExpired.Add(int64(rep.Stats.ExpiredPredicted))

	if p.cfg.OnSnapshot != nil && rk.Snapshot != nil {
		p.cfg.OnSnapshot(rk.Snapshot, batch.Week)
	}
	if p.cfg.OnWeek != nil {
		p.cfg.OnWeek(rep)
	}
	return true, nil
}

// batchRecords maps one delivered batch onto the ingest wire records.
func batchRecords(batch *sim.Batch) ([]TestRecord, []TicketRecord) {
	tests := make([]TestRecord, len(batch.Tests))
	for i, t := range batch.Tests {
		tests[i] = TestRecord{
			Line: t.M.Line, Week: t.M.Week, Missing: t.M.Missing, F: t.M.F[:],
			Profile: t.Profile, DSLAM: t.DSLAM, Usage: t.Usage,
		}
	}
	tickets := make([]TicketRecord, len(batch.Tickets))
	for i, t := range batch.Tickets {
		tickets[i] = TicketRecord{ID: t.ID, Line: t.Line, Day: t.Day, Category: uint8(t.Category)}
	}
	return tests, tickets
}

// rankOrder returns prediction indices best-first (score desc, line asc) —
// the same order /v1/rank serves.
func rankOrder(preds []core.Prediction) []int {
	order := make([]int, len(preds))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		pa, pb := preds[order[a]], preds[order[b]]
		if pa.Score != pb.Score {
			return pa.Score > pb.Score
		}
		return pa.Line < pb.Line
	})
	return order
}
