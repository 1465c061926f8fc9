package coro

import (
	"slices"
	"testing"
)

// countingStart builds a frame-backed lookup that suspends susp(i) times
// and then returns 100+i, recording how often each index was started.
func countingStart(t *testing.T, n int, susp func(i int) int, starts []int) func(i int) Handle[int] {
	return func(i int) Handle[int] {
		if i < 0 || i >= n {
			t.Fatalf("start(%d) out of range [0,%d)", i, n)
		}
		starts[i]++
		remaining := susp(i)
		return NewFrame(func() (int, bool) {
			if remaining > 0 {
				remaining--
				return 0, false
			}
			return 100 + i, true
		})
	}
}

// checkDelivery asserts every index was started and delivered exactly
// once with its own result — the owner-bookkeeping invariant.
func checkDelivery(t *testing.T, n int, starts []int, got map[int]int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("delivered %d results, want %d", len(got), n)
	}
	for i := 0; i < n; i++ {
		if starts[i] != 1 {
			t.Errorf("index %d started %d times, want 1", i, starts[i])
		}
		if r, ok := got[i]; !ok || r != 100+i {
			t.Errorf("result[%d] = %d (ok=%v), want %d", i, r, ok, 100+i)
		}
	}
}

func TestRunSequentialCompletionOrder(t *testing.T) {
	const n = 8
	starts := make([]int, n)
	got := map[int]int{}
	var order []int
	RunSequential(n, countingStart(t, n, func(i int) int { return (i * 3) % 5 }, starts),
		func(i, r int) {
			order = append(order, i)
			if _, dup := got[i]; dup {
				t.Fatalf("index %d delivered twice", i)
			}
			got[i] = r
		})
	checkDelivery(t, n, starts, got)
	for i, o := range order {
		if o != i {
			t.Fatalf("sequential completion order %v, want 0..%d in order", order, n-1)
		}
	}
}

// TestRunInterleavedOwnerRecycling drives the owner[] recycling path: with
// group 2 and suspension counts [2,0,0], slot 1 finishes first, is
// refilled with lookup 2, and every result must land at its own index.
// The completion order is fully determined by the round-robin scheduler.
func TestRunInterleavedOwnerRecycling(t *testing.T) {
	susp := []int{2, 0, 0}
	n := len(susp)
	starts := make([]int, n)
	got := map[int]int{}
	var order []int
	RunInterleaved(n, 2, countingStart(t, n, func(i int) int { return susp[i] }, starts),
		func(i, r int) {
			order = append(order, i)
			got[i] = r
		})
	checkDelivery(t, n, starts, got)
	if want := []int{1, 0, 2}; !slices.Equal(order, want) {
		t.Fatalf("completion order = %v, want %v", order, want)
	}
}

// TestRunInterleavedChurn stresses slot replacement with many lookups of
// divergent suspension counts across several group sizes.
func TestRunInterleavedChurn(t *testing.T) {
	const n = 64
	susp := func(i int) int { return (i * 7) % 11 }
	for _, group := range []int{1, 2, 3, 6, 17, n} {
		starts := make([]int, n)
		got := map[int]int{}
		RunInterleaved(n, group, countingStart(t, n, susp, starts),
			func(i, r int) {
				if _, dup := got[i]; dup {
					t.Fatalf("group %d: index %d delivered twice", group, i)
				}
				got[i] = r
			})
		checkDelivery(t, n, starts, got)
	}
}

func TestRunInterleavedGroupLargerThanN(t *testing.T) {
	const n = 3
	starts := make([]int, n)
	got := map[int]int{}
	RunInterleaved(n, 50, countingStart(t, n, func(i int) int { return i }, starts),
		func(i, r int) { got[i] = r })
	checkDelivery(t, n, starts, got)
}

func TestRunInterleavedZeroN(t *testing.T) {
	for _, group := range []int{-1, 0, 1, 5} {
		RunInterleaved(0, group,
			func(i int) Handle[int] { t.Fatalf("group %d: start called for n=0", group); return nil },
			func(i, r int) { t.Fatalf("group %d: sink called for n=0", group) })
	}
}

// TestRunInterleavedNonPositiveGroup covers the regression where a
// non-positive group silently dropped all lookups; it must degrade to
// sequential execution instead.
func TestRunInterleavedNonPositiveGroup(t *testing.T) {
	const n = 5
	for _, group := range []int{0, -3} {
		starts := make([]int, n)
		got := map[int]int{}
		RunInterleaved(n, group, countingStart(t, n, func(i int) int { return i % 3 }, starts),
			func(i, r int) { got[i] = r })
		checkDelivery(t, n, starts, got)
	}
}

// TestRunInterleavedSlotsRecycling drives the slot-recycling start path:
// one frame struct and step closure per slot, the struct reset in place
// and the handle Reset to the slot's own step per lookup, must deliver
// every result to its own index with zero fresh handles after slot
// initialization.
func TestRunInterleavedSlotsRecycling(t *testing.T) {
	const n = 40
	susp := func(i int) int { return (i * 7) % 5 }
	for _, group := range []int{1, 3, 8, n + 5} {
		type slotFrame struct {
			i, remaining int
		}
		effGroup := min(group, n)
		if effGroup < 1 {
			effGroup = 1
		}
		frames := make([]slotFrame, effGroup)
		handles := make([]*Frame[int], effGroup)
		steps := make([]func() (int, bool), effGroup)
		starts := make([]int, n)
		got := map[int]int{}
		RunInterleavedSlots(n, group,
			func(slot, i int) Handle[int] {
				if slot < 0 || slot >= effGroup {
					t.Fatalf("group %d: slot %d out of range [0,%d)", group, slot, effGroup)
				}
				starts[i]++
				f := &frames[slot]
				*f = slotFrame{i: i, remaining: susp(i)}
				h := handles[slot]
				if h == nil {
					steps[slot] = func() (int, bool) {
						if f.remaining > 0 {
							f.remaining--
							return 0, false
						}
						return 100 + f.i, true
					}
					h = NewFrame(steps[slot])
					handles[slot] = h
				} else {
					h.Reset(steps[slot])
				}
				return h
			},
			func(i, r int) {
				if _, dup := got[i]; dup {
					t.Fatalf("group %d: index %d delivered twice", group, i)
				}
				got[i] = r
			})
		checkDelivery(t, n, starts, got)
	}
}

// TestRunInterleavedSlotsNilSkip drives the skip contract: start
// returning nil must drop that input — no slot occupied, sink never
// called for it — while every other input is still started and
// delivered exactly once. Skips are exercised at the head of the
// sequence (initial fill), mid-stream (refill), at the tail, and for
// every input at once.
func TestRunInterleavedSlotsNilSkip(t *testing.T) {
	const n = 24
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
		for _, group := range []int{1, 2, 4, n} {
			starts := make([]int, n)
			got := map[int]int{}
			inner := countingStart(t, n, func(i int) int { return (i * 5) % 4 }, starts)
			RunInterleavedSlots(n, group,
				func(slot, i int) Handle[int] {
					if tc.skip(i) {
						return nil
					}
					return inner(i)
				},
				func(i, r int) {
					if tc.skip(i) {
						t.Fatalf("%s/group %d: sink called for skipped index %d", tc.name, group, i)
					}
					if _, dup := got[i]; dup {
						t.Fatalf("%s/group %d: index %d delivered twice", tc.name, group, i)
					}
					got[i] = r
				})
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
