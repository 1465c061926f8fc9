package coro

// Frame is a stackless coroutine whose suspension state machine is written
// by hand: the step function holds all live state in its closure (the
// "coroutine frame") and returns (result, done) per resume. This is what
// the C++ compiler generates from a coroutine body — and what a programmer
// writes by hand for AMAC — so Frame is the cheapest Handle backend.
// Behind the Handle interface a resume still costs three indirect calls
// (Done, Resume, and the step closure); Slots drives frame structs by
// value with one Step method call per resume instead.
type Frame[R any] struct {
	step   func() (R, bool)
	result R
	done   bool
}

// NewFrame wraps a resumable step function. Each call to Resume invokes
// step once; step returns done=true together with the final result.
func NewFrame[R any](step func() (R, bool)) *Frame[R] {
	return &Frame[R]{step: step}
}

// Resume advances the state machine by one step.
//
//isi:hotpath
func (f *Frame[R]) Resume() {
	if f.done {
		return
	}
	if r, done := f.step(); done {
		f.result = r
		f.done = true
	}
}

// Done reports completion.
//
//isi:hotpath
func (f *Frame[R]) Done() bool { return f.done }

// Result returns the final value once Done is true.
//
//isi:hotpath
func (f *Frame[R]) Result() R { return f.result }

// Reset rearms the frame with a new step function, recycling the handle
// allocation — the frame-reuse optimization of Section 4's "performance
// considerations" (the paper recycles coroutine frames from completed
// lookups for subsequent calls).
func (f *Frame[R]) Reset(step func() (R, bool)) {
	var zero R
	f.step = step
	f.result = zero
	f.done = false
}
