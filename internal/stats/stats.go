// Package stats provides the measurement helpers the benchmark harness
// uses: latency distributions (CDFs, percentiles) and table formatting
// for the paper's figures.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Sample accumulates scalar observations (latencies in nanoseconds,
// entry counts, ...).
type Sample struct {
	xs     []float64
	sorted bool
}

// Add appends an observation.
func (s *Sample) Add(v float64) {
	s.xs = append(s.xs, v)
	s.sorted = false
}

// AddDuration appends a latency observation.
func (s *Sample) AddDuration(d time.Duration) { s.Add(float64(d.Nanoseconds())) }

// N returns the observation count.
func (s *Sample) N() int { return len(s.xs) }

func (s *Sample) sortOnce() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) by linear
// interpolation; 0 for an empty sample.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sortOnce()
	if p <= 0 {
		return s.xs[0]
	}
	if p >= 100 {
		return s.xs[len(s.xs)-1]
	}
	rank := p / 100 * float64(len(s.xs)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(s.xs) {
		return s.xs[lo]
	}
	return s.xs[lo]*(1-frac) + s.xs[lo+1]*frac
}

// Mean returns the arithmetic mean.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.xs {
		sum += v
	}
	return sum / float64(len(s.xs))
}

// Max returns the maximum observation.
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sortOnce()
	return s.xs[len(s.xs)-1]
}

// Min returns the minimum observation.
func (s *Sample) Min() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sortOnce()
	return s.xs[0]
}

// CDF returns (value, fraction ≤ value) pairs at the given resolution —
// the series plotted in the paper's latency figures (Fig. 8, 11).
func (s *Sample) CDF(points int) [][2]float64 {
	if len(s.xs) == 0 || points < 2 {
		return nil
	}
	s.sortOnce()
	out := make([][2]float64, 0, points)
	for i := 0; i < points; i++ {
		frac := float64(i) / float64(points-1)
		idx := int(frac * float64(len(s.xs)-1))
		out = append(out, [2]float64{s.xs[idx], float64(idx+1) / float64(len(s.xs))})
	}
	return out
}

// FracBelow returns the fraction of observations ≤ v.
func (s *Sample) FracBelow(v float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sortOnce()
	i := sort.SearchFloat64s(s.xs, v)
	for i < len(s.xs) && s.xs[i] <= v {
		i++
	}
	return float64(i) / float64(len(s.xs))
}

// LogLogSlope is the least-squares slope of ln y on ln x — the exponent p
// of the power law y ∝ x^p that best fits the points.
func LogLogSlope(xs, ys []float64) float64 {
	var sx, sy, sxx, sxy float64
	for i := range xs {
		lx, ly := math.Log(xs[i]), math.Log(ys[i])
		sx, sy, sxx, sxy = sx+lx, sy+ly, sxx+lx*lx, sxy+lx*ly
	}
	n := float64(len(xs))
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}

// Table renders experiment rows with aligned columns — the bench
// harness's figure/table output format.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			// Four significant digits keep small throughputs (0.0039
			// Mpps) and large entry counts readable in one format.
			row[i] = fmt.Sprintf("%.4g", v)
		case time.Duration:
			row[i] = v.String()
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "## %s\n", t.Title)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}
