package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	cases := []struct{ q, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {90, 4.6}, {10, 1.4},
	}
	for _, c := range cases {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one sample = %v", got)
	}
}

func TestBeyondCountsTailSupport(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i)
	}
	// p95 of 0..199 is 189.05: 10 samples (190..199) lie beyond it.
	if got := beyond(xs, 95); got != 10 {
		t.Errorf("beyond p95 of 200 samples = %d, want 10", got)
	}
	if got := beyond(xs[:100], 99); got != 1 {
		t.Errorf("beyond p99 of 100 samples = %d, want 1", got)
	}
	if got := beyond(nil, 50); got != 0 {
		t.Errorf("beyond of no samples = %d", got)
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		support int
		want    float64
	}{{5000, 90}, {200, 90}, {100, 90}, {50, 80}, {30, 100 * (1 - 10.0/30)}, {20, 50}, {0, 50}}
	for _, c := range cases {
		if got := tailPercentile(c.support); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.support, got, c.want)
		}
	}
}

func TestScheduleIsOpenLoop(t *testing.T) {
	start := time.Unix(100, 0)
	s := newSchedule(start, 4) // one session every 250ms
	if got := s.due(0); !got.Equal(start) {
		t.Errorf("due(0) = %v", got)
	}
	if got := s.due(3).Sub(start); got != 750*time.Millisecond {
		t.Errorf("due(3) offset = %v, want 750ms", got)
	}
	if got := s.count(time.Second); got != 4 {
		t.Errorf("count(1s) at 4/s = %d, want 4", got)
	}
	if got := s.count(1100 * time.Millisecond); got != 5 {
		t.Errorf("count(1.1s) at 4/s = %d, want 5", got)
	}
}

func TestLatenessBound(t *testing.T) {
	due := time.Unix(0, 0)
	var l lateness
	if !l.valid(minLateBoundMs) || l.p99() != 0 {
		t.Error("an empty phase is valid with zero lateness")
	}
	for i := 0; i < 99; i++ {
		l.add(due, due.Add(time.Millisecond))
	}
	l.add(due, due.Add(-time.Millisecond)) // early dispatch counts as on time
	if !l.valid(minLateBoundMs) {
		t.Errorf("1ms lateness should be valid, p99 = %v", l.p99())
	}
	for i := 0; i < 5; i++ {
		l.add(due, due.Add(50*time.Millisecond))
	}
	if l.valid(minLateBoundMs) {
		t.Errorf("5%% of sessions 50ms late should invalidate the phase, p99 = %v", l.p99())
	}
}

func TestLateBoundScalesWithInterval(t *testing.T) {
	if got := lateBoundMs(10 * time.Millisecond); got != minLateBoundMs {
		t.Errorf("bound at a 10ms interval = %v, want the %v ms floor", got, minLateBoundMs)
	}
	if got := lateBoundMs(200 * time.Millisecond); got != 200 {
		t.Errorf("bound at a 200ms interval = %v, want 200", got)
	}
}

func TestStreamIsDeterministic(t *testing.T) {
	for _, sp := range specs {
		a, err := generate(sp, 3, true)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(sp, 3, true)
		sa, sb := newStream(a), newStream(b)
		for i := 0; i < 50; i++ {
			x, y := sa.next(), sb.next()
			if x.kind != y.kind || x.offset != y.offset || x.target.Key() != y.target.Key() || x.fresh.Key() != y.fresh.Key() {
				t.Fatalf("%s: session %d differs across same-seed streams", sp.name, i)
			}
		}
	}
}

func TestMixesIssueEveryOp(t *testing.T) {
	for _, sp := range specs {
		in, err := generate(sp, 1, true)
		if err != nil {
			t.Fatal(err)
		}
		st := newStream(in)
		kinds := map[sessKind]int{}
		for i := 0; i < 40; i++ {
			kinds[st.next().kind]++
		}
		writes := kinds[sessWrite] + kinds[sessInsertFresh]
		reads := kinds[sessRead] + kinds[sessQuery]
		annotates := kinds[sessRead] + kinds[sessAnnotate]
		if writes == 0 || reads == 0 || annotates == 0 {
			t.Errorf("%s: session mix %v does not issue every op type", sp.name, kinds)
		}
	}
}
