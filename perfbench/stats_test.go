package main

import (
	"testing"
	"time"
)

func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n      int
		want   float64
		p      float64
		usable bool
	}{
		{n: 5000, want: 0.99, p: 0.99, usable: true},
		{n: 1000, want: 0.99, p: 0.99, usable: true},
		{n: 500, want: 0.99, p: 0.98, usable: true},
		{n: 20, want: 0.99, p: 0.5, usable: true},
		{n: 11, want: 0.99, p: 1 - 10.0/11, usable: true},
		{n: 10, want: 0.99},
		{n: 0, want: 0.5},
	} {
		p, ok := tailPercentile(tc.want, tc.n)
		if ok != tc.usable || (ok && (p-tc.p > 1e-12 || tc.p-p > 1e-12)) {
			t.Errorf("tailPercentile(%v, %d) = %v, %v; want %v, %v", tc.want, tc.n, p, ok, tc.p, tc.usable)
		}
	}
}

// Whatever the sample count, the reported tail leaves at least ten
// samples above it.
func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	for n := 11; n <= 3000; n++ {
		var d dist
		for i := 0; i < n; i++ {
			d.add(float64(n - i)) // unsorted on purpose
		}
		v, _, err := d.tail(0.99)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		beyond := 0
		for _, x := range d.vals {
			if x > v {
				beyond++
			}
		}
		if beyond < tailBeyond {
			t.Fatalf("n=%d: tail %v has %d samples beyond it", n, v, beyond)
		}
	}
	var few dist
	for i := 0; i < tailBeyond; i++ {
		few.add(1)
	}
	if _, _, err := few.tail(0.99); err == nil {
		t.Fatal("a tail of 10 samples was reported")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	vs := []float64{4, 1, 3, 2}
	if got := median(vs); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if vs[0] != 4 {
		t.Error("median reordered its input")
	}
}

// fakeClock advances only when told to: sleeping jumps to the wake time
// plus a fixed overshoot, and operations advance it by their cost.
type fakeClock struct {
	t         time.Time
	overshoot time.Duration
}

func (c *fakeClock) now() time.Time { return c.t }

func (c *fakeClock) sleepUntil(t time.Time) {
	if t.After(c.t) {
		c.t = t.Add(c.overshoot)
	}
}

// A stalled operation inflates the latency of every operation that fell
// due behind it, because latency runs from the due time, and the
// generator is not counted late for that wait.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	start := time.Unix(1000, 0)
	c := &fakeClock{t: start}
	const every = 10 * time.Millisecond
	samples := openLoop(c, start, every,
		func(i int, _ time.Time) bool { return i >= 20 },
		func(i int) error {
			if i == 0 {
				c.t = c.t.Add(100 * time.Millisecond) // the stall
			} else {
				c.t = c.t.Add(time.Millisecond)
			}
			return nil
		})
	if len(samples) != 20 {
		t.Fatalf("%d samples, want 20", len(samples))
	}
	if got := samples[0].latency(); got != 100*time.Millisecond {
		t.Errorf("stalled op latency %v", got)
	}
	// Op k (1..9) was due at 10k ms but could only start once its
	// predecessors finished at 100+(k-1) ms.
	for k := 1; k <= 9; k++ {
		want := time.Duration(100+k-10*k) * time.Millisecond
		if got := samples[k].latency(); got != want {
			t.Errorf("op %d latency %v, want %v", k, got, want)
		}
		if samples[k].late != 0 {
			t.Errorf("op %d counted %v generator lateness while queued", k, samples[k].late)
		}
	}
	// By op 11 the backlog has drained; it runs on time.
	if got := samples[11].latency(); got != time.Millisecond {
		t.Errorf("op 11 latency %v after the backlog drained", got)
	}
}

func TestOpenLoopReportsGeneratorLateness(t *testing.T) {
	start := time.Unix(1000, 0)
	c := &fakeClock{t: start, overshoot: 300 * time.Microsecond}
	samples := openLoop(c, start, 10*time.Millisecond,
		func(i int, _ time.Time) bool { return i >= 5 },
		func(int) error { c.t = c.t.Add(time.Millisecond); return nil })
	for i, s := range samples[1:] {
		if s.late != 300*time.Microsecond {
			t.Errorf("op %d late %v, want the 300µs wake-up overshoot", i+1, s.late)
		}
		if s.latency() != 1300*time.Microsecond {
			t.Errorf("op %d latency %v", i+1, s.latency())
		}
	}
}
