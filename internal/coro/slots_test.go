package coro

import (
	"slices"
	"testing"
)

// countFrame is a by-value frame that suspends remaining times and then
// returns 100+i.
type countFrame struct {
	i, remaining int
}

func (f *countFrame) Step() (int, bool) {
	if f.remaining > 0 {
		f.remaining--
		return 0, false
	}
	return 100 + f.i, true
}

type countSlots = Slots[countFrame, int, *countFrame]

// drainCounting drains one batch through s, recording how often each
// index was started, every delivered result (failing on a duplicate
// delivery or a delivery of a skipped index) and the distinct frames
// handed to start.
func drainCounting(t *testing.T, s *countSlots, n, group int, susp func(i int) int, skip func(i int) bool) (starts []int, got map[int]int, frames map[*countFrame]bool) {
	t.Helper()
	starts = make([]int, n)
	got = map[int]int{}
	frames = map[*countFrame]bool{}
	s.Drain(n, group,
		func(f *countFrame, i int) bool {
			if i < 0 || i >= n {
				t.Fatalf("n=%d group=%d: start(%d) out of range", n, group, i)
			}
			if skip != nil && skip(i) {
				return false
			}
			starts[i]++
			frames[f] = true
			*f = countFrame{i: i, remaining: susp(i)}
			return true
		},
		func(i, r int) {
			if skip != nil && skip(i) {
				t.Fatalf("n=%d group=%d: sink called for skipped index %d", n, group, i)
			}
			if _, dup := got[i]; dup {
				t.Fatalf("n=%d group=%d: index %d delivered twice", n, group, i)
			}
			got[i] = r
		})
	return starts, got, frames
}

// TestSlotsReuse runs several batches of different sizes and group
// sizes through one Slots, including group growth beyond the initial
// capacity and the degenerate n=0 / group<=0 cases: every index is
// started and delivered exactly once with its own result, and the batch
// occupies min(max(group, 1), n) distinct frames — group <= 0 runs
// sequentially in one frame, group > n in n.
func TestSlotsReuse(t *testing.T) {
	s := NewSlots[countFrame, int](2)
	batches := []struct{ n, group int }{
		{5, 2}, {3, 8}, {12, 4}, {1, 1}, {0, 3}, {7, 0}, {4, -2}, {6, 6}, {9, 40},
	}
	for _, b := range batches {
		starts, got, frames := drainCounting(t, s, b.n, b.group, func(i int) int { return (i * 5) % 7 }, nil)
		checkDelivery(t, b.n, starts, got)
		if want := min(max(b.group, 1), b.n); len(frames) != want {
			t.Errorf("batch %+v: %d distinct frames, want %d", b, len(frames), want)
		}
	}
}

// TestSlotsGrowAcrossGroups drains batches of growing group size through
// one Slots: results stay correct across each growth of the frame array,
// a batch at or below the largest group so far reuses the array (its
// frames are a subset of the largest batch's), and a steady-state batch
// allocates nothing.
func TestSlotsGrowAcrossGroups(t *testing.T) {
	s := NewSlots[countFrame, int](1)
	var widest map[*countFrame]bool
	for _, b := range []struct{ n, group int }{{6, 2}, {9, 4}, {20, 16}, {5, 3}, {30, 16}} {
		starts, got, frames := drainCounting(t, s, b.n, b.group, func(i int) int { return (i * 3) % 4 }, nil)
		checkDelivery(t, b.n, starts, got)
		if b.group == 16 && widest == nil {
			widest = frames
			continue
		}
		if widest != nil {
			for f := range frames {
				if !widest[f] {
					t.Fatalf("batch %+v: frame %p outside the 16-slot array; the array was regrown", b, f)
				}
			}
		}
	}
	if len(widest) != 16 {
		t.Fatalf("16-wide batch used %d distinct frames, want 16", len(widest))
	}

	var out [64]int
	start := func(f *countFrame, i int) bool {
		*f = countFrame{i: i, remaining: i % 5}
		return true
	}
	sink := func(i, r int) { out[i] = r }
	if a := testing.AllocsPerRun(100, func() { s.Drain(len(out), 8, start, sink) }); a != 0 {
		t.Fatalf("steady-state Drain allocated %v times per batch, want 0", a)
	}
	for i, r := range out {
		if r != 100+i {
			t.Fatalf("result[%d] = %d, want %d", i, r, 100+i)
		}
	}
}

// TestSlotsSkip drives the skip contract: start returning false drops
// that input — no frame occupied, sink never called for it — while every
// other input is still started and delivered exactly once. Skips are
// exercised at the head of the sequence (initial fill), mid-stream
// (refill), at the tail, and for every input at once; no batch occupies
// more frames than its clamped group.
func TestSlotsSkip(t *testing.T) {
	const n = 24
	s := NewSlots[countFrame, int](2)
	for _, tc := range []struct {
		name string
		skip func(i int) bool
	}{
		{"head", func(i int) bool { return i < 5 }},
		{"mid", func(i int) bool { return i%3 == 1 }},
		{"tail", func(i int) bool { return i >= n-4 }},
		{"all", func(i int) bool { return true }},
		{"none", func(i int) bool { return false }},
	} {
		for _, group := range []int{-1, 0, 1, 2, 4, n, n + 9} {
			starts, got, frames := drainCounting(t, s, n, group, func(i int) int { return (i * 5) % 4 }, tc.skip)
			if eff := min(max(group, 1), n); len(frames) > eff {
				t.Errorf("%s/group %d: %d distinct frames, want <= %d", tc.name, group, len(frames), eff)
			}
			for i := 0; i < n; i++ {
				if tc.skip(i) {
					if starts[i] != 0 {
						t.Errorf("%s/group %d: skipped index %d started %d times", tc.name, group, i, starts[i])
					}
					continue
				}
				if starts[i] != 1 {
					t.Errorf("%s/group %d: index %d started %d times, want 1", tc.name, group, i, starts[i])
				}
				if r, ok := got[i]; !ok || r != 100+i {
					t.Errorf("%s/group %d: result[%d] = %d (ok=%v), want %d", tc.name, group, i, r, ok, 100+i)
				}
			}
		}
	}
}

// TestSlotsRefillSameRound pins the refill timing: with group 2 and
// suspension counts [2,0,0], input 1 finishes on its first step and its
// slot takes input 2 in that same round, so input 2 finishes before
// input 0.
func TestSlotsRefillSameRound(t *testing.T) {
	susp := []int{2, 0, 0}
	var order []int
	s := NewSlots[countFrame, int](2)
	s.Drain(len(susp), 2,
		func(f *countFrame, i int) bool {
			*f = countFrame{i: i, remaining: susp[i]}
			return true
		},
		func(i, r int) { order = append(order, i) })
	if want := []int{1, 2, 0}; !slices.Equal(order, want) {
		t.Fatalf("completion order = %v, want %v", order, want)
	}
}

// bufFrame is a frame that references caller memory.
type bufFrame struct {
	buf  []int
	i    int
	left int
}

func (f *bufFrame) Step() (int, bool) {
	if f.left > 0 {
		f.left--
		return 0, false
	}
	return len(f.buf) + f.i, true
}

// TestSlotsClearedAfterBatch: a finished batch leaves no frame state
// behind, so frames never keep a batch's memory reachable.
func TestSlotsClearedAfterBatch(t *testing.T) {
	s := NewSlots[bufFrame, int](4)
	buf := make([]int, 8)
	s.Drain(len(buf), 4,
		func(f *bufFrame, i int) bool {
			*f = bufFrame{buf: buf, i: i, left: i % 3}
			return true
		},
		func(i, r int) { buf[i] = r })
	for i, r := range buf {
		if r != len(buf)+i {
			t.Fatalf("result[%d] = %d, want %d", i, r, len(buf)+i)
		}
	}
	for k, f := range s.frames {
		if f.buf != nil || f.i != 0 || f.left != 0 {
			t.Fatalf("frame %d not cleared after the batch: %+v", k, f)
		}
	}
}
