package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"nevermind/fleetbench/harness"
)

// capture keeps a bounded sample of the inputs a traced run sent, for the
// ladder to replay in-process. A nil capture (untraced runs) keeps nothing.
type capture struct {
	mu      sync.Mutex
	scores  [][]byte
	bulk    []byte
	week    int
	locates []locateCase
	chunks  [][]byte
}

type locateCase struct {
	Line int32 `json:"line"`
	Week int   `json:"week"`
}

const (
	captureScores  = 256
	captureLocates = 200
	captureChunks  = 21 // one week
)

func (c *capture) read(rr *readRec, body []byte) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch rr.class {
	case harness.Lookup1, harness.Lookup100:
		if len(c.scores) < captureScores {
			c.scores = append(c.scores, body)
		}
	case harness.Bulk:
		c.bulk, c.week = body, rr.week
	case harness.Locate:
		if len(c.locates) < captureLocates {
			c.locates = append(c.locates, locateCase{rr.lines[0], rr.week})
		}
	}
}

func (c *capture) chunk(ch *chunk) {
	if c == nil || ch.tests == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.chunks) < captureChunks {
		c.chunks = append(c.chunks, ch.body)
	}
}

// ladderInput is the capture's manifest, read by the ladder.
type ladderInput struct {
	Data    string       `json:"data"`
	Model   string       `json:"model"`
	Locator string       `json:"locator"`
	Week    int          `json:"week"`
	Weeks   []int        `json:"weeks"`
	Scores  []string     `json:"scores"`
	Bulk    string       `json:"bulk"`
	Chunks  []string     `json:"chunks"`
	Locates []locateCase `json:"locates"`
}

// write stores the capture under dir and returns the manifest path.
func (c *capture) write(dir string, p *prepared, week int) (string, error) {
	os.RemoveAll(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	in := ladderInput{Data: p.DataPath, Model: p.PredPath, Locator: p.LocPath, Week: week, Locates: c.locates}
	if c.bulk != nil {
		in.Week = c.week
	}
	for w := in.Week - histWeeks + 1; w <= in.Week; w++ {
		in.Weeks = append(in.Weeks, w)
	}
	put := func(name string, b []byte) (string, error) {
		path := filepath.Join(dir, name)
		return path, os.WriteFile(path, b, 0o644)
	}
	var err error
	for i, b := range c.scores {
		path, e := put(fmt.Sprintf("score-%03d.json", i), b)
		in.Scores, err = append(in.Scores, path), e
		if err != nil {
			return "", err
		}
	}
	if in.Bulk, err = put("bulk.json", bulkBody(numLines, in.Week)); err != nil {
		return "", err
	}
	for i, b := range c.chunks {
		path, e := put(fmt.Sprintf("chunk-%03d.json", i), b)
		in.Chunks, err = append(in.Chunks, path), e
		if err != nil {
			return "", err
		}
	}
	if len(in.Locates) == 0 {
		in.Locates = []locateCase{{0, in.Week}, {1, in.Week}}
	}
	b, _ := json.MarshalIndent(in, "", " ")
	return put("manifest.json", b)
}
