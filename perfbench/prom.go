package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// promSnap is one scrape of a Prometheus text exposition: series
// ("name{labels}") to value. Histograms appear as their _sum and
// _count series, which is all the benchmark needs: a mean over a run
// is the difference of two sums over the difference of two counts.
type promSnap map[string]float64

func parseProm(r io.Reader) (promSnap, error) {
	s := promSnap{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: %q: %w", line, err)
		}
		s[line[:i]] = v
	}
	return s, sc.Err()
}

// family splits a series key into its metric name and label text.
func family(series string) (name, labels string) {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i], series[i+1 : len(series)-1]
	}
	return series, ""
}

// sum adds every series of metric name whose labels contain each of
// the given label pairs (e.g. `service="bank"`).
func (s promSnap) sum(name string, labels ...string) float64 {
	var t float64
	for k, v := range s {
		n, l := family(k)
		if n != name {
			continue
		}
		match := true
		for _, want := range labels {
			if !strings.Contains(l, want) {
				match = false
				break
			}
		}
		if match {
			t += v
		}
	}
	return t
}

// hist is a histogram's running sum and count.
type hist struct{ sum, count float64 }

func (s promSnap) hist(name string, labels ...string) hist {
	return hist{s.sum(name+"_sum", labels...), s.sum(name+"_count", labels...)}
}

// mean is sum/count, 0 when nothing was observed.
func (h hist) mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / h.count
}
