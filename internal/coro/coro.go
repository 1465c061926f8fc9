// Package coro provides the coroutine abstraction of the paper's Section 4
// — functions that suspend mid-execution and resume later — plus the
// sequential and interleaved schedulers of Listing 7.
//
// C++17 gives the paper compiler-generated *stackless* coroutines: the
// compiler splits the body at suspension points and spills live state into
// a heap frame. Go has no equivalent language feature, so this package
// offers three backends with the same Handle API:
//
//   - Frame (frame.go): a hand-rolled resumable step function — the moral
//     equivalent of what the C++ compiler emits (and of AMAC's explicit
//     state machines). Cheapest to resume, most intrusive to write.
//   - Pull (pull.go): built on iter.Pull's runtime coroutines (Go ≥ 1.23).
//     The body is straight-line code with suspend() calls — the ergonomic
//     equivalent of the paper's co_await — at the cost of a runtime
//     coroutine switch per resume.
//   - Goroutine (goro.go): a goroutine synchronized over channels, i.e. a
//     stackful coroutine. Included deliberately: its switch cost is an
//     order of magnitude above the others, quantifying why naive goroutine
//     interleaving cannot hide cache misses (see internal/native and the
//     coroutine-backend ablation).
//
// The Listing 7 schedulers (sched.go) drive any of them through Handle.
// Long-lived drains — the serving shards of internal/serve and the
// slot-recycling native kernels — use Slots (slots.go) instead: the
// Frame idea without the Handle, a reusable array of frame structs kept
// by value and stepped with one method call per resume, each finished
// slot refilled in the round it finishes.
//
// Simulated-time experiments charge switch overhead explicitly through the
// engine, so all backends produce identical simulated results; the backend
// choice matters for real (wall-clock) executions.
package coro

import "errors"

// Handle is the coroutine handle returned to the caller at the first
// suspension (Section 4): Resume continues execution from the suspension
// point, Done reports completion, and Result retrieves the value passed to
// co_return once Done is true.
type Handle[R any] interface {
	// Resume continues the coroutine until its next suspension or
	// completion. Resuming a completed coroutine is a no-op.
	Resume()
	// Done reports whether the coroutine has run to completion.
	Done() bool
	// Result returns the coroutine's return value. It is only meaningful
	// once Done reports true.
	Result() R
}

// Stopper is implemented by handles that own resources (a runtime
// coroutine or goroutine) and must be released if abandoned before
// completion. Handles driven to Done release themselves.
type Stopper interface {
	// Stop abandons the coroutine. Stop must only be called between
	// resumes (never concurrently with Resume) and is idempotent.
	Stop()
}

// errStopped aborts a coroutine body when its handle is stopped early.
var errStopped = errors.New("coro: stopped")
