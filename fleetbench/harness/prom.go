package harness

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
)

// Scrape is one /metrics exposition: series text (name plus label block,
// exactly as printed) to value.
type Scrape map[string]float64

// ParseMetrics parses Prometheus text exposition (version 0.0.4). Comment
// lines are skipped; any other line must be "series value".
func ParseMetrics(text string) (Scrape, error) {
	out := Scrape{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics line %d: no value: %q", n, line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", n, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

// Delta returns after minus before for every series in after; a series
// absent before counts from zero. Gauges come out as differences too, so
// callers read gauges from a single scrape instead.
func Delta(before, after Scrape) Scrape {
	out := make(Scrape, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// Get returns one series: name alone, or name with a single label.
func (s Scrape) Get(name, label, value string) float64 {
	if label == "" {
		return s[name]
	}
	return s[name+"{"+label+"="+strconv.Quote(value)+"}"]
}

// SumAll adds every series of the metric name, across all label values
// (histogram _bucket series excluded by using the exact family name).
func (s Scrape) SumAll(name string) float64 {
	var t float64
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// MaxAll returns the largest value over every series of name.
func (s Scrape) MaxAll(name string) float64 {
	var m float64
	for k, v := range s {
		if (k == name || strings.HasPrefix(k, name+"{")) && v > m {
			m = v
		}
	}
	return m
}

// Hist is the sum and count of one histogram series.
type Hist struct{ Sum, Count float64 }

// Hist reads a histogram's _sum and _count, optionally for one label value.
func (s Scrape) Hist(name, label, value string) Hist {
	return Hist{Sum: s.Get(name+"_sum", label, value), Count: s.Get(name+"_count", label, value)}
}

// Mean is Sum/Count, or 0 with no observations.
func (h Hist) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / h.Count
}

// Merge adds several scrapes series by series (for example the same metric
// over every daemon of a fleet).
func Merge(ss ...Scrape) Scrape {
	out := Scrape{}
	for _, s := range ss {
		for k, v := range s {
			out[k] += v
		}
	}
	return out
}
