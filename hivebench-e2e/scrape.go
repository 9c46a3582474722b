package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// sample is one series of a Prometheus text exposition.
type sample struct {
	name   string
	labels map[string]string
	value  float64
}

// scrape is one GET /metrics of one node.
type scrape []sample

func scrapeMetrics(ctx context.Context, url string) (scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := ctlClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", url, resp.StatusCode)
	}
	return parseExposition(string(body))
}

// parseExposition reads the text format: `name{k="v",...} value` lines,
// comments skipped. Label values never contain `",` in this program's
// registry, which keeps the label split simple.
func parseExposition(text string) (scrape, error) {
	var out scrape
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics line %q: no value", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		s := sample{name: line[:sp], labels: map[string]string{}, value: v}
		if i := strings.IndexByte(s.name, '{'); i >= 0 {
			lbl := strings.TrimSuffix(s.name[i+1:], "}")
			s.name = s.name[:i]
			for _, kv := range strings.Split(lbl, "\",") {
				k, val, ok := strings.Cut(kv, "=")
				if !ok {
					return nil, fmt.Errorf("metrics line %q: bad label %q", line, kv)
				}
				s.labels[k] = strings.Trim(val, "\"")
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// sum adds the series of name whose labels include every pair of match
// (given as alternating keys and values).
func (sc scrape) sum(name string, match ...string) float64 {
	var total float64
next:
	for _, s := range sc {
		if s.name != name {
			continue
		}
		for i := 0; i+1 < len(match); i += 2 {
			if s.labels[match[i]] != match[i+1] {
				continue next
			}
		}
		total += s.value
	}
	return total
}

// maxOf is the largest value among the series of name.
func (sc scrape) maxOf(name string) float64 {
	var m float64
	for _, s := range sc {
		if s.name == name && s.value > m {
			m = s.value
		}
	}
	return m
}

// window is a before/after pair of scrapes of the same nodes.
type window struct{ before, after []scrape }

func (w window) delta(name string, match ...string) float64 {
	var d float64
	for i := range w.after {
		d += w.after[i].sum(name, match...) - w.before[i].sum(name, match...)
	}
	return d
}

// meanOf is the mean of a histogram over the window, in the given unit
// (seconds per unit); 0 when nothing was observed.
func (w window) meanOf(hist string, unit float64, match ...string) float64 {
	n := w.delta(hist+"_count", match...)
	if n == 0 {
		return 0
	}
	return w.delta(hist+"_sum", match...) / n / unit
}

func scrapeAll(ctx context.Context, d *deployment) ([]scrape, error) {
	out := make([]scrape, len(d.nodes))
	for i, n := range d.nodes {
		sc, err := scrapeMetrics(ctx, n.url)
		if err != nil {
			return nil, err
		}
		out[i] = sc
	}
	return out, nil
}
