package coro

// Slots is the interleaved scheduler of Listing 7 specialised for
// long-lived drains (internal/serve's shards, the slot-recycling native
// kernels): the coroutine frames themselves live by value in one
// reusable array, and the scheduler advances each with
// P(&frames[s]).Step() — no Handle, no Done/Resume/Result, no step
// closure per frame. A resume therefore costs one method call, which is
// the price the paper's argument needs: a dependent-miss binary search
// over a beyond-LLC table takes a couple of dozen steps per key, so any
// per-step overhead is paid that many times over.
//
// F is the hand-spilled frame struct (native.SearchCursor, a serve join
// frame, ...) and P its pointer type, whose Step advances the frame by
// one suspension and returns (result, done). The array grows on demand
// to the largest group ever asked for and is reused across batches, so
// the group may differ per batch — which is what an adaptive group-size
// controller needs — and a steady-state Drain allocates nothing.
//
// A Slots is not safe for concurrent use: each shard owns one.
type Slots[F any, R any, P framePtr[F, R]] struct {
	frames []F
	owner  []int // input index each slot is running; -1 = empty
}

// framePtr is the pointer through which Slots steps a frame in place.
type framePtr[F, R any] interface {
	*F
	Step() (R, bool)
}

// NewSlots creates a scheduler with its frame array sized for group.
func NewSlots[F any, R any, P framePtr[F, R]](group int) *Slots[F, R, P] {
	group = max(group, 1)
	return &Slots[F, R, P]{frames: make([]F, group), owner: make([]int, group)}
}

// Drain runs n inputs interleaved at the given group, clamped to [1, n].
// start(p, i) reinitialises the free frame *p for input i in place and
// returns true, or returns false to skip input i: no slot is occupied,
// nothing is resumed and sink is never called for that index — the
// caller completes skipped inputs itself (a dropped request, a key the
// write delta resolved). Every started input is delivered exactly once
// through sink(i, r), in completion order. A frame that returns done is
// sunk and its slot refilled with the next pending input in the same
// round. The frame array is cleared when the batch ends, so frames do
// not keep a finished batch's memory reachable.
//
//isi:hotpath
func (s *Slots[F, R, P]) Drain(n, group int, start func(p P, i int) bool, sink func(i int, r R)) {
	if n <= 0 {
		return
	}
	group = min(max(group, 1), n)
	if len(s.frames) < group {
		s.frames = make([]F, group)  //isi:allow-alloc(growth to a new max group size; steady state reuses)
		s.owner = make([]int, group) //isi:allow-alloc(grows with frames above)
	}
	frames := s.frames[:group]
	owner := s.owner[:group]
	for k := range owner {
		owner[k] = -1
	}
	// Each round steps every live frame once and refills every empty
	// slot; the first round only fills. A round that ends with no live
	// frame has exhausted the inputs (a slot stays empty only then).
	next, live := 0, 0
	for {
		for k := range frames {
			if o := owner[k]; o >= 0 {
				r, done := P(&frames[k]).Step()
				if !done {
					continue
				}
				sink(o, r)
				owner[k] = -1
				live--
			}
			for next < n {
				i := next
				next++
				if start(&frames[k], i) {
					owner[k] = i
					live++
					break
				}
			}
		}
		if live == 0 {
			break
		}
	}
	clear(frames)
}
