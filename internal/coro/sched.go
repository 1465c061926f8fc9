package coro

// This file implements the two schedulers of the paper's Listing 7. The
// schedulers are agnostic to the coroutine implementation — "they can be
// used with any index lookup" — so they take a constructor callback and
// deliver results through a sink.

// RunSequential performs the lookups one after the other (Listing 7,
// runSequential): each coroutine is driven to completion before the next
// starts. Coroutines created for sequential execution typically never
// suspend, making the loop equivalent to plain function calls.
func RunSequential[R any](n int, start func(i int) Handle[R], sink func(i int, r R)) {
	for i := 0; i < n; i++ {
		h := start(i)
		for !h.Done() {
			h.Resume()
		}
		sink(i, h.Result())
	}
}

// RunInterleaved executes the lookups in groups of `group` concurrent
// instruction streams (Listing 7, runInterleaved): a buffer of coroutine
// handles is polled round-robin; unfinished lookups are resumed, finished
// ones deliver their result and are replaced by the next pending lookup.
// Results arrive through sink keyed by their input index (completion order
// is interleaved, not sequential).
func RunInterleaved[R any](n, group int, start func(i int) Handle[R], sink func(i int, r R)) {
	RunInterleavedSlots(n, group, func(_, i int) Handle[R] { return start(i) }, sink)
}

// RunInterleavedSlots is RunInterleaved with slot-aware starts: start
// receives the scheduler slot (in [0, group)) the lookup will occupy in
// addition to its input index, so a lookup's live state can be kept per
// slot — a per-slot frame struct reset in place behind a per-slot
// coro.Frame (Frame.Reset with the slot's bound step) — instead of
// allocated per lookup. Serving drains use Slots instead, which keeps
// the frames themselves by value and skips the Handle indirection.
//
// start may return nil to decline an input: the scheduler skips it —
// no slot is occupied, no resume happens, and sink is never called for
// that index — and immediately offers the slot the next pending input;
// the caller is responsible for completing skipped inputs through its
// own channel.
func RunInterleavedSlots[R any](n, group int, start func(slot, i int) Handle[R], sink func(i int, r R)) {
	if n <= 0 {
		return
	}
	if group > n {
		group = n
	}
	if group < 1 {
		// A non-positive group degrades to sequential execution (group 1)
		// rather than silently dropping all n lookups.
		group = 1
	}
	handles := make([]Handle[R], group)
	owner := make([]int, group)
	next := 0
	notDone := 0
	for s := 0; s < group; s++ {
		for next < n {
			h := start(s, next)
			o := next
			next++
			if h != nil {
				handles[s] = h
				owner[s] = o
				notDone++
				break
			}
		}
	}
	for notDone > 0 {
		for s := 0; s < group; s++ {
			h := handles[s]
			if h == nil {
				continue
			}
			if !h.Done() {
				h.Resume()
				continue
			}
			sink(owner[s], h.Result())
			handles[s] = nil
			notDone--
			for next < n {
				nh := start(s, next)
				o := next
				next++
				if nh != nil {
					handles[s] = nh
					owner[s] = o
					notDone++
					break
				}
			}
		}
	}
}
