package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// scrape is one parse of a Prometheus text exposition: every sample line,
// keyed by its series as printed ("name" or "name{l=\"v\",...}").
type scrape map[string]float64

// parseScrape reads the text format served at GET /metrics. Comment lines
// are skipped; a sample line is a series followed by its value (an optional
// trailing timestamp is ignored).
func parseScrape(r io.Reader) (scrape, error) {
	s := make(scrape)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		series, rest, err := splitSeries(text)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", line, err)
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return nil, fmt.Errorf("metrics line %d: no value for %s", line, series)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", line, err)
		}
		s[series] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read metrics: %w", err)
	}
	return s, nil
}

// splitSeries splits a sample line into its series and the remainder,
// honouring quoted label values, which may contain spaces and braces
// (route patterns such as "GET /v1/results/{id}").
func splitSeries(line string) (series, rest string, err error) {
	open := strings.IndexAny(line, "{ ")
	if open < 0 {
		return "", "", fmt.Errorf("no value in %q", line)
	}
	if line[open] == ' ' {
		return line[:open], line[open+1:], nil
	}
	quoted := false
	for i := open + 1; i < len(line); i++ {
		switch {
		case quoted && line[i] == '\\':
			i++
		case line[i] == '"':
			quoted = !quoted
		case !quoted && line[i] == '}':
			return line[:i+1], line[i+1:], nil
		}
	}
	return "", "", fmt.Errorf("unterminated labels in %q", line)
}

// metricName strips the label set from a series key.
func metricName(series string) string {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i]
	}
	return series
}

// delta returns after minus before for every series present after. A
// series absent before counts from zero, as a counter created during the
// window did.
func delta(before, after scrape) scrape {
	d := make(scrape, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// sum adds every series of one metric name across its label sets.
func (s scrape) sum(name string) float64 {
	var total float64
	for k, v := range s {
		if metricName(k) == name {
			total += v
		}
	}
	return total
}

// ratio keeps a derived metric together with the two numbers it came from,
// so every printed ratio carries its base.
type ratio struct {
	num, den float64
}

// value is num/den, or 0 when the base is empty.
func (r ratio) value() float64 {
	if r.den == 0 {
		return 0
	}
	return r.num / r.den
}

func (r ratio) String() string {
	if r.den == 0 {
		return "n/a (base 0)"
	}
	return fmt.Sprintf("%.6g (%.6g / %.6g)", r.value(), r.num, r.den)
}
