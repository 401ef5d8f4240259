// Package stats defines the measurement types shared by the query
// algorithms and the experiment harness: per-query cost metrics (the
// paper's total time, CPU time and pages accessed) and simple series
// aggregation/formatting for regenerating the paper's figures as text.
package stats

import (
	"fmt"
	"strings"
	"time"
)

// Metrics aggregates the cost of one query (or a batch of queries).
type Metrics struct {
	Elapsed time.Duration // response time
	CPU     time.Duration // computation time (elapsed minus simulated I/O wait)
	Pages   int64         // disk pages accessed
	// Work counters (CPU-cost proxies, machine-independent).
	UpperBounds int // upper-bound estimations performed
	LowerBounds int // lower-bound estimations performed (closed ranges skip theirs)
	Iterations  int // resolution iterations consumed
	Candidates  int // candidates examined
}

// Add accumulates other into m.
func (m *Metrics) Add(other Metrics) {
	m.Elapsed += other.Elapsed
	m.CPU += other.CPU
	m.Pages += other.Pages
	m.UpperBounds += other.UpperBounds
	m.LowerBounds += other.LowerBounds
	m.Iterations += other.Iterations
	m.Candidates += other.Candidates
}

// Scale divides every counter by n (averaging a batch).
func (m *Metrics) Scale(n int) {
	if n <= 0 {
		return
	}
	m.Elapsed /= time.Duration(n)
	m.CPU /= time.Duration(n)
	m.Pages /= int64(n)
	m.UpperBounds /= n
	m.LowerBounds /= n
	m.Iterations /= n
	m.Candidates /= n
}

// String summarises the metrics on one line.
func (m Metrics) String() string {
	return fmt.Sprintf("time=%v cpu=%v pages=%d ub=%d lb=%d iters=%d cands=%d",
		m.Elapsed.Round(time.Microsecond), m.CPU.Round(time.Microsecond),
		m.Pages, m.UpperBounds, m.LowerBounds, m.Iterations, m.Candidates)
}

// Series is one plotted line of a figure: a label and (x, y) samples.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Add appends a sample.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Table renders a set of series sharing the same X axis as an aligned text
// table (the experiment harness's figure output).
func Table(title, xLabel string, series []Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", title)
	fmt.Fprintf(&b, "%-12s", xLabel)
	for _, s := range series {
		fmt.Fprintf(&b, "%16s", s.Label)
	}
	b.WriteByte('\n')
	if len(series) == 0 {
		return b.String()
	}
	for i := range series[0].X {
		fmt.Fprintf(&b, "%-12g", series[0].X[i])
		for _, s := range series {
			if i < len(s.Y) {
				fmt.Fprintf(&b, "%16.3f", s.Y[i])
			} else {
				fmt.Fprintf(&b, "%16s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
