package main

import (
	"context"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/serve"
)

// pointFuture and rangeFuture are the completion handles serve.Service and
// client.Remote share.
type pointFuture interface {
	Wait() serve.Result
	Err() error
}

type rangeFuture interface {
	Done() <-chan struct{}
	Err() error
	Dropped() bool
	Collect(r int) []serve.RangeEntry
}

// pointTarget admits one point op or range: the in-process service or the
// remote client.
type pointTarget interface {
	submit(op serve.Op) (pointFuture, rangeFuture)
}

type serveTarget struct{ svc *serve.Service }

func (t serveTarget) submit(op serve.Op) (pointFuture, rangeFuture) {
	if op.Kind == serve.OpRange {
		return nil, t.svc.Range(context.Background(), op.Key, op.Hi, 0)
	}
	return t.svc.Submit(context.Background(), op), nil
}

type remoteTarget struct{ rem *client.Remote }

func (t remoteTarget) submit(op serve.Op) (pointFuture, rangeFuture) {
	if op.Kind == serve.OpRange {
		return nil, t.rem.Range(context.Background(), op.Key, op.Hi, 0)
	}
	return t.rem.Submit(context.Background(), op), nil
}

// opRec is one generated op and its timeline, in nanoseconds on the run
// clock: due (the schedule), start and ret (around the admission call),
// done (when its collector saw it complete). done stays 0 for an op that
// never completed.
type opRec struct {
	op                    serve.Op
	seq                   int64
	due, start, ret, done int64
	pf                    pointFuture
	rf                    rangeFuture
	failed                bool
}

// pointMix draws the seeded op stream of the point workloads: lookups
// (a tenth of them absent), writes, and short ranges. Writes upsert an
// existing key with its own code, or insert and later delete a key of the
// churn region, so no read ever has two right answers.
type pointMix struct {
	ks                    keyspace
	rng                   *rand.Rand
	lookupFrac, writeFrac float64
	nextChurn             uint64
	live                  []uint64 // inserted churn keys not yet deleted, oldest first
}

func newPointMix(ks keyspace, seed, stream uint64, lookupFrac, writeFrac float64) *pointMix {
	return &pointMix{ks: ks, rng: rand.New(rand.NewPCG(seed, stream)), lookupFrac: lookupFrac, writeFrac: writeFrac}
}

func (m *pointMix) next() serve.Op {
	x := m.rng.Float64()
	switch {
	case x < m.lookupFrac:
		return serve.Op{Kind: serve.OpLookup, Key: m.ks.lookupKey(m.rng.Uint64N(m.ks.n), m.rng.IntN(10) == 0)}
	case x < m.lookupFrac+m.writeFrac:
		switch c := m.rng.IntN(8); {
		case c == 0 || (c == 1 && len(m.live) == 0):
			key := m.ks.churnKey(m.nextChurn)
			m.live = append(m.live, key)
			m.nextChurn++
			return serve.Op{Kind: serve.OpInsert, Key: key, Val: uint32(m.nextChurn)}
		case c == 1:
			key := m.live[0]
			m.live = m.live[1:]
			return serve.Op{Kind: serve.OpDelete, Key: key}
		default:
			i := m.rng.Uint64N(m.ks.n)
			return serve.Op{Kind: serve.OpInsert, Key: 2 * i, Val: uint32(i)}
		}
	default:
		w := 1 + m.rng.Uint64N(31)
		a := m.rng.Uint64N(m.ks.n - w + 1) // the range ends below the churn region
		lo, hi := 2*a, 2*(a+w-1)
		if a > 0 && m.rng.IntN(2) == 0 {
			lo-- // an odd bound must not change the answer
		}
		if m.rng.IntN(2) == 0 {
			hi++
		}
		return serve.RangeOp(lo, hi, 0)
	}
}

// opClass indexes the per-class collectors and latency sets.
type opClass int

const (
	classLookup opClass = iota
	classWrite
	classRange
	numClasses
)

func classOf(k serve.OpKind) opClass {
	switch k {
	case serve.OpInsert, serve.OpDelete:
		return classWrite
	case serve.OpRange:
		return classRange
	}
	return classLookup
}

// phaseResult is one open-loop phase: its ops and whether it kept up.
type phaseResult struct {
	rate       float64
	length     int64
	start      int64 // run-clock time the phase began
	scheduled  int64
	recs       []opRec // the issued ops
	aborted    bool    // the backlog bound tripped
	timedOut   bool    // some op did not complete within opDeadline
	wallIssued int64   // run-clock time the last op was issued
}

const (
	// opDeadline bounds the wait for any op after its phase stops issuing;
	// an op still open then counts as failed (a hung future must show up as
	// a failure, not a stuck run).
	opDeadline = 10 * time.Second
	// backlogLimit aborts a ladder step whose outstanding ops exceed this
	// much of its schedule: the target is not keeping up, and letting the
	// queue grow only lengthens the drain.
	backlogLimit = 250 * time.Millisecond
	// offerFrac is the share of scheduled ops a phase must issue.
	offerFrac = 0.98
)

// phaseOpts are a phase's optional behaviours.
type phaseOpts struct {
	// abortOnBacklog stops the phase once more than backlogLimit's worth of
	// ops are outstanding (ladder steps: the target is not keeping up).
	abortOnBacklog bool
	// mark, if set, runs after the phase's buffers are allocated, right
	// before the first op: counter snapshots taken there exclude the
	// benchmark's own allocations.
	mark func()
}

// runPhase drives target with mix at rate for length, from one generator
// goroutine, and waits (bounded) for every op. Completions are observed by
// one collector goroutine per op class, each waiting on its class's futures
// in issue order.
func (r *runner) runPhase(target pointTarget, mix *pointMix, rate float64, length time.Duration, opt phaseOpts) *phaseResult {
	s := schedule{rate: rate}
	pr := &phaseResult{rate: rate, length: int64(length)}
	pr.scheduled = s.total(pr.length)
	recs := make([]opRec, pr.scheduled)
	var chans [numClasses]chan *opRec
	var wg sync.WaitGroup
	var completed atomic.Int64
	for c := range chans {
		// Room for every op of the phase: the generator never blocks on
		// a collector that is waiting out a slow op.
		chans[c] = make(chan *opRec, pr.scheduled)
		wg.Add(1)
		go func(ch chan *opRec) {
			defer wg.Done()
			r.collect(ch, &completed)
		}(chans[c])
	}
	maxBacklog := int64(rate * backlogLimit.Seconds())
	if opt.mark != nil {
		opt.mark()
	}
	pr.start = r.clk.now()
	issued := openLoop(r.clk, pr.start, s, pr.length, pr.length/2, func(i, due int64) bool {
		if opt.abortOnBacklog && i-completed.Load() > maxBacklog {
			pr.aborted = true
			return false
		}
		rec := &recs[i]
		rec.op = mix.next()
		rec.seq = r.seq
		r.seq++
		rec.due = pr.start + due
		rec.start = r.clk.now()
		rec.pf, rec.rf = target.submit(rec.op)
		if r.spans.on {
			rec.ret = r.clk.now()
		}
		chans[classOf(rec.op.Kind)] <- rec
		return true
	})
	pr.wallIssued = r.clk.now()
	pr.recs = recs[:issued]
	for _, ch := range chans {
		close(ch)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(opDeadline):
		pr.timedOut = true
	}
	return pr
}

// collect waits for each op of ch in turn and checks its result.
func (r *runner) collect(ch chan *opRec, completed *atomic.Int64) {
	timer := time.NewTimer(opDeadline)
	defer timer.Stop()
	for rec := range ch {
		r.complete(rec, timer)
		completed.Add(1)
	}
}

// complete waits for one op (a range for at most opDeadline, on timer),
// stamps its completion and checks its result against the oracle.
func (r *runner) complete(rec *opRec, timer *time.Timer) {
	if rec.rf != nil {
		timer.Reset(opDeadline)
		select {
		case <-rec.rf.Done():
		case <-timer.C:
			rec.failed = true
			return
		}
		rec.done = r.clk.now()
		if rec.rf.Err() != nil || rec.rf.Dropped() {
			rec.failed = true
		} else if err := r.ks.checkRange(rec.op.Key, rec.op.Hi, rec.rf.Collect(0)); err != nil {
			r.mismatch(rec, err)
		}
	} else {
		res := rec.pf.Wait()
		rec.done = r.clk.now()
		var err error
		switch {
		case rec.pf.Err() != nil || res.Dropped:
			rec.failed = true
		case rec.op.Kind == serve.OpLookup:
			err = r.ks.checkLookup(rec.op.Key, res)
		default:
			err = checkWrite(rec.op, res)
		}
		if err != nil {
			r.mismatch(rec, err)
		}
	}
	rec.pf, rec.rf = nil, nil
}

// capacityWindow is how many ops the saturation phase keeps in flight:
// enough to fill the batcher's 256-op batches on both shards many times over.
const capacityWindow = 4096

// capacityResult is one saturation phase: ops completed over elapsed
// seconds, and ops issued and failed.
type capacityResult struct {
	completed, issued, failed int64
	elapsed                   float64
}

// runCapacity drives target at saturation for length: one generator
// goroutine issues ops back to back while fewer than capacityWindow are in
// flight (a closed loop over a window of ops). Results are checked as in
// runPhase.
func (r *runner) runCapacity(target pointTarget, mix *pointMix, length time.Duration) capacityResult {
	free := make(chan *opRec, capacityWindow) // the window: a free list of op slots
	for range capacityWindow {
		free <- new(opRec)
	}
	var chans [numClasses]chan *opRec
	var wg sync.WaitGroup
	var completed, failed atomic.Int64
	for c := range chans {
		chans[c] = make(chan *opRec, capacityWindow) // never more ops in flight
		wg.Add(1)
		go func(ch chan *opRec) {
			defer wg.Done()
			timer := time.NewTimer(opDeadline)
			defer timer.Stop()
			for rec := range ch {
				r.complete(rec, timer)
				if rec.failed {
					failed.Add(1)
				}
				completed.Add(1)
				free <- rec
			}
		}(chans[c])
	}
	start := r.clk.now()
	end := start + int64(length)
	var issued int64
	stall := time.NewTimer(opDeadline)
	defer stall.Stop()
	for r.clk.now() < end {
		var rec *opRec
		select {
		case rec = <-free:
		default:
			// Every slot is in flight: wait for one, but not forever.
			stall.Reset(opDeadline)
			select {
			case rec = <-free:
			case <-stall.C:
			}
		}
		if rec == nil {
			break
		}
		*rec = opRec{op: mix.next(), seq: r.seq}
		r.seq++
		rec.pf, rec.rf = target.submit(rec.op)
		chans[classOf(rec.op.Kind)] <- rec
		issued++
	}
	for _, ch := range chans {
		close(ch)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(opDeadline):
	}
	n := completed.Load()
	return capacityResult{completed: n, issued: issued, failed: failed.Load() + issued - n,
		elapsed: float64(r.clk.now()-start) / 1e9}
}

// failedOps counts a phase's failed ops: dropped, refused or errored, plus
// every op that had not completed when the phase's wait ran out.
func (pr *phaseResult) failedOps() int64 {
	var n int64
	for i := range pr.recs {
		if pr.recs[i].failed || pr.recs[i].done == 0 {
			n++
		}
	}
	return n
}

// latencies returns the due-to-done latencies (ns) of the phase's completed
// ops of class c (all classes when c < 0).
func (pr *phaseResult) latencies(c opClass) []float64 {
	var xs []float64
	for i := range pr.recs {
		rec := &pr.recs[i]
		if rec.done == 0 || rec.failed || (c >= 0 && classOf(rec.op.Kind) != c) {
			continue
		}
		xs = append(xs, float64(rec.done-rec.due))
	}
	return xs
}

// lateness returns the generator's lateness per op: admission start minus due.
func (pr *phaseResult) lateness() []float64 {
	xs := make([]float64, len(pr.recs))
	for i := range pr.recs {
		xs[i] = float64(pr.recs[i].start - pr.recs[i].due)
	}
	return xs
}

// keptUp reports whether the phase sustained its rate: every scheduled op
// issued (within offerFrac), no backlog abort or hang, and the p99 latency of
// all ops within limit.
func (pr *phaseResult) keptUp(limit time.Duration) bool {
	return !pr.aborted && !pr.timedOut && !offeredShort(int64(len(pr.recs)), pr.scheduled, offerFrac) &&
		pr.failedOps() == 0 && percentile(pr.latencies(-1), 99) <= float64(limit)
}
