package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-th percentile (0 <= q <= 100) of xs by linear
// interpolation between closest ranks, the definition numpy and Python's
// statistics module ("inclusive") use. It sorts a copy; an empty input
// gives NaN.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// median is percentile 50.
func median(xs []float64) float64 { return percentile(xs, 50) }

// beyond counts the samples strictly above the q-th percentile: the
// support of that percentile. A percentile with fewer than ten samples
// beyond it is an estimate of the maximum rather than of a tail.
func beyond(xs []float64, q float64) int {
	p := percentile(xs, q)
	n := 0
	for _, x := range xs {
		if x > p {
			n++
		}
	}
	return n
}

// maxTailPercentile caps the tail. Above p90 the workloads' latency
// mixtures change mode from run to run: on curation-read a few percent of
// pages are cache misses that overlap a where-index rebuild, so a deeper
// percentile lands on either side of that boundary.
const maxTailPercentile = 90

// tailPercentile is the highest percentile, at most maxTailPercentile,
// with at least ten samples beyond it among support samples: the tail a
// phase of that size can report. support is the number of requests
// scheduled, not the number that succeeded, so the percentile does not
// move between runs.
func tailPercentile(support int) float64 {
	if support <= 10 {
		return 50
	}
	return math.Max(50, math.Min(maxTailPercentile, 100*(1-10/float64(support))))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// schedule is a fixed-rate open-loop arrival schedule: session i is due
// at start + i/rate, whatever happened to earlier sessions.
type schedule struct {
	start    time.Time
	interval time.Duration
}

func newSchedule(start time.Time, rate float64) schedule {
	return schedule{start: start, interval: time.Duration(float64(time.Second) / rate)}
}

// due is the send time of session i.
func (s schedule) due(i int) time.Time { return s.start.Add(time.Duration(i) * s.interval) }

// count is the number of sessions due in [start, start+d).
func (s schedule) count(d time.Duration) int {
	return int((d + s.interval - 1) / s.interval)
}

// lateness tracks how far behind schedule the generator dispatched
// sessions: dispatch time minus due time, in milliseconds. It measures the
// generator itself, not the server; a request waiting for a busy
// connection is server latency and is timed from its due time instead.
type lateness struct {
	samples []float64
}

func (l *lateness) add(due, dispatched time.Time) {
	d := ms(dispatched.Sub(due))
	if d < 0 {
		d = 0
	}
	l.samples = append(l.samples, d)
}

// minLateBoundMs is the floor of the generator's lateness bound.
const minLateBoundMs = 10

// lateBoundMs is the bound on the generator's p99 lateness for a schedule
// with the given inter-arrival interval: one interval, at least
// minLateBoundMs. A generator later than that has lost whole arrivals, so
// the phase did not offer the configured load and is not recorded.
func lateBoundMs(interval time.Duration) float64 {
	return math.Max(minLateBoundMs, ms(interval))
}

// p99 is the 99th percentile lateness in milliseconds (0 when empty).
func (l *lateness) p99() float64 {
	if len(l.samples) == 0 {
		return 0
	}
	return percentile(l.samples, 99)
}

// valid reports whether the generator kept to its schedule within bound
// milliseconds at the 99th percentile.
func (l *lateness) valid(bound float64) bool { return l.p99() <= bound }
