package chaos

import (
	"errors"
	"fmt"

	"nevermind/internal/data"
	"nevermind/internal/rng"
	"nevermind/internal/serve"
	"nevermind/internal/sim"
)

var (
	errPullFault   = errors.New("chaos: injected feed outage")
	errPartialPull = errors.New("chaos: partial delivery (truncated read)")
)

// Source wraps a pipeline feed with the three source fault modes. It keeps
// the re-delivery contract serve.Source documents: the underlying stream is
// consumed one week at a time, and a week is held until it has been
// delivered cleanly — a pull error, a partial delivery, or a malformed
// batch all leave the week pending so the pipeline's retry re-pulls it.
//
// Decisions derive from (seed, week, attempt), so the fault schedule for a
// given week is independent of every other week and of how many retries any
// previous week needed.
type Source struct {
	in    *Injector
	inner serve.Source
	cur   *sim.Batch // week pulled from inner but not yet delivered clean
	tries int        // delivery attempts for cur, including this one
}

// WrapSource interposes the injector's source fault modes on a feed.
func (in *Injector) WrapSource(inner serve.Source) *Source {
	return &Source{in: in, inner: inner}
}

// Remaining counts the pending (pulled but not cleanly delivered) week.
func (s *Source) Remaining() int {
	n := s.inner.Remaining()
	if s.cur != nil {
		n++
	}
	return n
}

// Next delivers the pending week's next attempt, pulling a fresh week from
// the wrapped feed when none is pending.
func (s *Source) Next() (sim.Batch, bool, error) {
	if s.cur == nil {
		b, ok, err := s.inner.Next()
		if !ok || err != nil {
			return b, ok, err
		}
		s.cur = &b
		s.tries = 0
	}
	s.tries++
	cfg := &s.in.cfg
	if s.tries <= cfg.MaxConsecutive {
		r := rng.Derive(cfg.Seed, siteSource, uint64(s.cur.Week), uint64(s.tries))
		x := r.Float64()
		switch {
		case x < cfg.SourceError:
			s.in.srcErrs.Add(1)
			return sim.Batch{Week: s.cur.Week}, true, serve.Transient(fmt.Errorf("%w: week %d", errPullFault, s.cur.Week))
		case x < cfg.SourceError+cfg.PartialBatch:
			s.in.partials.Add(1)
			return truncate(s.cur, r), true,
				serve.Transient(fmt.Errorf("%w: week %d", errPartialPull, s.cur.Week))
		case x < cfg.SourceError+cfg.PartialBatch+cfg.MalformedBatch:
			s.in.malformed.Add(1)
			return corrupt(s.cur, r), true, nil // silent: only validation catches it
		}
	}
	b := *s.cur
	s.cur = nil
	return b, true, nil
}

// truncate returns a shallow copy delivering only a prefix of the week's
// records — the shape of a connection cut mid-transfer.
func truncate(b *sim.Batch, r *rng.RNG) sim.Batch {
	out := *b
	if n := len(b.Tests); n > 0 {
		out.Tests = b.Tests[:r.Intn(n)]
	}
	if n := len(b.Tickets); n > 0 {
		out.Tickets = b.Tickets[:r.Intn(n)]
	}
	return out
}

// corrupt returns a copy with a few records stamped out of range, so store
// validation rejects the batch atomically. The original stays clean for the
// eventual good delivery.
func corrupt(b *sim.Batch, r *rng.RNG) sim.Batch {
	out := *b
	out.Tests = append([]sim.LineTest(nil), b.Tests...)
	if len(out.Tests) == 0 {
		// A testless week can still be corrupted through its tickets.
		out.Tickets = append([]data.Ticket(nil), b.Tickets...)
		if len(out.Tickets) > 0 {
			out.Tickets[r.Intn(len(out.Tickets))].Day = -1
		}
		return out
	}
	for k := 1 + r.Intn(3); k > 0; k-- {
		out.Tests[r.Intn(len(out.Tests))].M.Week = corruptWeek
	}
	return out
}
