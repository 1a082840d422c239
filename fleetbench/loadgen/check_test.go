package main

import (
	"fmt"
	"strings"
	"testing"
)

// refBody renders a full-population score answer for week with the given
// per-line scores.
func refBody(week int, scores []float64) []byte {
	var b strings.Builder
	b.WriteString(`{"predictions":[`)
	for l, s := range scores {
		if l > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"line":%d,"week":%d,"score":%v,"probability":%v}`, l, week, s, s/10)
	}
	b.WriteString(`],"version":7}`)
	return []byte(b.String())
}

func rankBody(week, population int, preds [][2]float64) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, `{"n":%d,"population":%d,"predictions":[`, len(preds), population)
	for i, p := range preds {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"line":%d,"week":%d,"score":%v,"probability":%v}`, int(p[0]), week, p[1], p[1]/10)
	}
	fmt.Fprintf(&b, `],"week":%d}`, week)
	return []byte(b.String())
}

func TestReferenceChecks(t *testing.T) {
	scores := []float64{0.5, 2, 1, 2, -1}
	ref, err := parseReference(refBody(9, scores), 9, len(scores))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parseReference(refBody(9, scores[:4]), 9, len(scores)); err == nil {
		t.Error("short reference accepted")
	}

	// Ties break by line ascending: lines 1 and 3 both score 2.
	good := rankBody(9, 5, [][2]float64{{1, 2}, {3, 2}, {2, 1}})
	if err := checkRank(good, 9, 3, 5, ref); err != nil {
		t.Errorf("correct rank rejected: %v", err)
	}
	for name, body := range map[string][]byte{
		"tie order":   rankBody(9, 5, [][2]float64{{3, 2}, {1, 2}, {2, 1}}),
		"wrong line":  rankBody(9, 5, [][2]float64{{1, 2}, {3, 2}, {0, 0.5}}),
		"short":       rankBody(9, 5, [][2]float64{{1, 2}, {3, 2}}),
		"population":  rankBody(9, 4, [][2]float64{{1, 2}, {3, 2}, {2, 1}}),
		"wrong score": rankBody(9, 5, [][2]float64{{1, 2}, {3, 2}, {2, 1.5}}),
	} {
		if err := checkRank(body, 9, 3, 5, ref); err == nil {
			t.Errorf("%s: bad rank accepted", name)
		}
	}

	lookup := []byte(`{"predictions":[{"line":3,"week":9,"score":2,"probability":0.2},{"line":0,"week":9,"score":0.5,"probability":0.05}],"version":3}`)
	if err := checkScore(lookup, []int32{3, 0}, 9, ref); err != nil {
		t.Errorf("correct score rejected: %v", err)
	}
	for name, c := range map[string]struct {
		lines []int32
		week  int
	}{"order": {[]int32{0, 3}, 9}, "week": {[]int32{3, 0}, 8}, "count": {[]int32{3}, 9}} {
		if err := checkScore(lookup, c.lines, c.week, ref); err == nil {
			t.Errorf("%s: mismatched score accepted", name)
		}
	}
	wrongValue := []byte(`{"predictions":[{"line":3,"week":9,"score":1.9,"probability":0.2}],"version":3}`)
	if err := checkScore(wrongValue, []int32{3}, 9, ref); err == nil {
		t.Error("score differing from the reference accepted")
	}
	noVersion := []byte(`{"predictions":[{"line":3,"week":9,"score":2,"probability":0.2}]}`)
	if err := checkScore(noVersion, []int32{3}, 9, ref); err == nil {
		t.Error("score answer without version accepted")
	}
}

func TestLocateAndAckChecks(t *testing.T) {
	loc := []byte(`{"line":4,"week":9,"model":"combined","dispositions":[{"id":3,"probability":0.5},{"id":1,"probability":0.5},{"id":2,"probability":0.1}]}`)
	if err := checkLocate(loc, 4, 9, 3); err != nil {
		t.Errorf("correct locate rejected: %v", err)
	}
	if err := checkLocate(loc, 4, 9, 52); err == nil {
		t.Error("locate with too few dispositions accepted")
	}
	unsorted := []byte(`{"line":4,"week":9,"dispositions":[{"id":3,"probability":0.1},{"id":1,"probability":0.5}]}`)
	if err := checkLocate(unsorted, 4, 9, 2); err == nil {
		t.Error("ascending locate accepted")
	}
	c := &chunk{tests: 1000, tickets: 7}
	if err := checkAck([]byte(`{"ingested_tests":1000,"ingested_tickets":7,"lines":1000,"version":4}`), c); err != nil {
		t.Errorf("correct ack rejected: %v", err)
	}
	if err := checkAck([]byte(`{"ingested_tests":999,"ingested_tickets":7,"lines":1000,"version":4}`), c); err == nil {
		t.Error("short ack accepted")
	}
}
