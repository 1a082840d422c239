package main

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Answer checks. Every answer is checked, not just its status: a score must
// return exactly the requested (line, week) pairs with the values the
// week's reference scoring gives; a rank must be the reference's top-n in
// (score desc, line asc) order; a locate must list every disposition in
// descending posterior order.

type prediction struct {
	Line        int32   `json:"line"`
	Week        int     `json:"week"`
	Score       float64 `json:"score"`
	Probability float64 `json:"probability"`
}

type scoreResp struct {
	Predictions []prediction `json:"predictions"`
	Version     *uint64      `json:"version"`
}

type rankResp struct {
	N           int          `json:"n"`
	Population  int          `json:"population"`
	Predictions []prediction `json:"predictions"`
	Week        int          `json:"week"`
}

type locateResp struct {
	Line         int32 `json:"line"`
	Week         int   `json:"week"`
	Dispositions []struct {
		ID          int     `json:"id"`
		Probability float64 `json:"probability"`
	} `json:"dispositions"`
}

// reference is one week's scores for the whole population, indexed by
// line, with its rank order computed once.
type reference struct {
	byLine []prediction
	ranked []prediction
}

func parseReference(body []byte, week, lines int) (*reference, error) {
	var r scoreResp
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, err
	}
	if len(r.Predictions) != lines {
		return nil, fmt.Errorf("reference for week %d has %d predictions, want %d", week, len(r.Predictions), lines)
	}
	for i, p := range r.Predictions {
		if int(p.Line) != i || p.Week != week {
			return nil, fmt.Errorf("reference for week %d: entry %d is (%d,%d)", week, i, p.Line, p.Week)
		}
	}
	// The order /v1/rank promises: score descending, then line ascending.
	ranked := append([]prediction(nil), r.Predictions...)
	sort.Slice(ranked, func(a, b int) bool {
		if ranked[a].Score != ranked[b].Score {
			return ranked[a].Score > ranked[b].Score
		}
		return ranked[a].Line < ranked[b].Line
	})
	return &reference{byLine: r.Predictions, ranked: ranked}, nil
}

// topN returns the reference's best n lines in rank order.
func (ref *reference) topN(n int) []prediction { return ref.ranked[:min(n, len(ref.ranked))] }

func checkScore(body []byte, lines []int32, week int, ref *reference) error {
	var r scoreResp
	if err := json.Unmarshal(body, &r); err != nil {
		return err
	}
	if r.Version == nil {
		return fmt.Errorf("score answer has no version")
	}
	if len(r.Predictions) != len(lines) {
		return fmt.Errorf("score answer has %d predictions for %d examples", len(r.Predictions), len(lines))
	}
	for i, p := range r.Predictions {
		if p.Line != lines[i] || p.Week != week {
			return fmt.Errorf("score answer %d is (%d,%d), asked (%d,%d)", i, p.Line, p.Week, lines[i], week)
		}
		if want := ref.byLine[p.Line]; p.Score != want.Score || p.Probability != want.Probability {
			return fmt.Errorf("score of (%d,%d) is %v, reference %v", p.Line, week, p.Score, want.Score)
		}
	}
	return nil
}

// checkRankShape checks a rank answer's envelope and order; with a
// reference it also checks the answer is the reference's top n.
func checkRank(body []byte, week, n, population int, ref *reference) error {
	var r rankResp
	if err := json.Unmarshal(body, &r); err != nil {
		return err
	}
	if r.Week != week || r.Population != population {
		return fmt.Errorf("rank answer for week %d population %d, want week %d population %d", r.Week, r.Population, week, population)
	}
	want := min(n, population)
	if r.N != want || len(r.Predictions) != want {
		return fmt.Errorf("rank answer n=%d with %d predictions, want %d", r.N, len(r.Predictions), want)
	}
	for i, p := range r.Predictions {
		if p.Week != week {
			return fmt.Errorf("rank entry %d has week %d", i, p.Week)
		}
		if i > 0 {
			q := r.Predictions[i-1]
			if p.Score > q.Score || (p.Score == q.Score && p.Line <= q.Line) {
				return fmt.Errorf("rank entries %d,%d out of order", i-1, i)
			}
		}
	}
	if ref != nil {
		for i, p := range ref.topN(want) {
			g := r.Predictions[i]
			if g.Line != p.Line || g.Score != p.Score || g.Probability != p.Probability {
				return fmt.Errorf("rank entry %d is line %d score %v, reference top-%d has line %d score %v",
					i, g.Line, g.Score, want, p.Line, p.Score)
			}
		}
	}
	return nil
}

// rankPopulation reads just the population of a rank answer.
func rankPopulation(body []byte) (int, error) {
	var r struct {
		Population int `json:"population"`
	}
	err := json.Unmarshal(body, &r)
	return r.Population, err
}

func checkLocate(body []byte, line int32, week, dispositions int) error {
	var r locateResp
	if err := json.Unmarshal(body, &r); err != nil {
		return err
	}
	if r.Line != line || r.Week != week {
		return fmt.Errorf("locate answer for (%d,%d), asked (%d,%d)", r.Line, r.Week, line, week)
	}
	if len(r.Dispositions) != dispositions {
		return fmt.Errorf("locate answer lists %d dispositions, want %d", len(r.Dispositions), dispositions)
	}
	for i := 1; i < len(r.Dispositions); i++ {
		if r.Dispositions[i].Probability > r.Dispositions[i-1].Probability {
			return fmt.Errorf("locate dispositions %d,%d not in descending order", i-1, i)
		}
	}
	return nil
}

func checkAck(body []byte, c *chunk) error {
	var a ingestAck
	if err := json.Unmarshal(body, &a); err != nil {
		return err
	}
	if a.IngestedTests != c.tests || a.IngestedTickets != c.tickets {
		return fmt.Errorf("ingest ack %d tests %d tickets, sent %d and %d", a.IngestedTests, a.IngestedTickets, c.tests, c.tickets)
	}
	return nil
}
