package main

import "testing"

func TestScheduleDueTimes(t *testing.T) {
	for _, rate := range []float64{1, 3, 1000, 50000, 123457, 1e6} {
		s := schedule{rate: rate}
		for i := int64(0); i < 2000; i++ {
			d := s.due(i)
			if want := int64(float64(i) * 1e9 / rate); d != want {
				t.Fatalf("rate %v: due(%d) = %d, want %d", rate, i, d, want)
			}
			if got := s.dueBy(d); got != i+1 {
				t.Fatalf("rate %v: dueBy(due(%d)) = %d, want %d", rate, i, got, i+1)
			}
			if d > 0 && s.dueBy(d-1) > i {
				t.Fatalf("rate %v: op %d counted as due before its due time", rate, i)
			}
		}
	}
	s := schedule{rate: 50000}
	if got := s.total(int64(1e9)); got != 50000 {
		t.Errorf("ops due in 1 s at 50k/s = %d, want 50000", got)
	}
	if got := s.dueBy(-1); got != 0 {
		t.Errorf("dueBy before the start = %d, want 0", got)
	}
}

// fakeClock advances only when the generator sleeps (by the requested time
// plus the sleep's overshoot) or when an issue call takes time.
type fakeClock struct {
	t         int64
	overshoot int64
	sleeps    int
}

func (c *fakeClock) now() int64 { return c.t }
func (c *fakeClock) sleep(d int64) {
	c.sleeps++
	c.t += d + c.overshoot
}

// issued is one issue call: the op index, its due time, and the clock then.
type issued struct{ i, due, at int64 }

func TestOpenLoopIssuesOnSchedule(t *testing.T) {
	// A sleep that overshoots by 1 ms, as on a host with a coarse timer:
	// each wake issues every op due by then, and none is skipped.
	clk := &fakeClock{t: 5000, overshoot: 1e6}
	s := schedule{rate: 100000} // one op per 10 µs
	var got []issued
	n := openLoop(clk, clk.t, s, int64(1e7), int64(1e7), func(i, due int64) bool {
		got = append(got, issued{i, due, clk.t - 5000})
		return true
	})
	if n != 1000 || len(got) != 1000 {
		t.Fatalf("issued %d ops (%d calls), want 1000", n, len(got))
	}
	for k, g := range got {
		if g.i != int64(k) || g.due != s.due(int64(k)) {
			t.Fatalf("call %d issued op %d due %d, want op %d due %d", k, g.i, g.due, k, s.due(int64(k)))
		}
		if g.at < g.due {
			t.Fatalf("op %d issued at %d, before its due time %d", g.i, g.at, g.due)
		}
		if late := g.at - g.due; late > 1e6+1e4 {
			t.Fatalf("op %d issued %d ns late, more than one overshoot", g.i, late)
		}
	}
	// About one wake per overshoot, not one sleep per op.
	if clk.sleeps > 11 {
		t.Errorf("generator slept %d times for 1000 ops over 10 ms", clk.sleeps)
	}
}

func TestOpenLoopCatchesUpAfterStall(t *testing.T) {
	clk := &fakeClock{}
	s := schedule{rate: 1000} // one op per ms
	var got []issued
	openLoop(clk, 0, s, int64(20e6), int64(1e9), func(i, due int64) bool {
		got = append(got, issued{i, due, clk.t})
		if i == 3 {
			clk.t += 7e6 // op 3's admission stalls for 7 ms
		}
		return true
	})
	if len(got) != 20 {
		t.Fatalf("issued %d ops, want 20", len(got))
	}
	for k, g := range got {
		if g.i != int64(k) || g.due != int64(k)*1e6 {
			t.Fatalf("call %d issued op %d due %d: the schedule shifted", k, g.i, g.due)
		}
	}
	// Ops 4..10 fell due during the stall and go out together at 10 ms,
	// right after it, keeping their original due times.
	for i := 4; i <= 10; i++ {
		if got[i].at != 10e6 {
			t.Errorf("overdue op %d issued at %d, want the catch-up burst at 10 ms", i, got[i].at)
		}
	}
	if got[11].at != 11e6 {
		t.Errorf("op 11 issued at %d, want back on schedule at 11 ms", got[11].at)
	}
}

func TestOpenLoopAbortsWhenFarBehind(t *testing.T) {
	clk := &fakeClock{}
	s := schedule{rate: 1000}
	n := openLoop(clk, 0, s, int64(10e6), int64(5e6), func(i, due int64) bool {
		clk.t += 2e6 // every admission takes 2 ms: half the offered rate
		return true
	})
	if n >= 10 || n < 6 {
		t.Errorf("issued %d of 10 ops; want the phase cut short once it overran by its slack", n)
	}
	if !offeredShort(n, s.total(int64(10e6)), offerFrac) {
		t.Errorf("a phase that issued %d of 10 ops should count as offered short", n)
	}
	m := openLoop(&fakeClock{}, 0, s, int64(10e6), int64(5e6), func(i, due int64) bool { return i < 4 })
	if m != 4 {
		t.Errorf("issue returning false stopped the phase after %d ops, want 4", m)
	}
}
