package serve

import (
	"time"

	"repro/internal/coro"
	"repro/internal/native"
	"repro/internal/nativejoin"
)

// This file is the join execution path: the service's build side and the
// composite dictionary→probe coroutine it drains join batches through.
//
// A join service (New with WithBuild) gives every shard, next to its
// dictionary partition, a build-side partition: a real-memory
// bucket-chained hash table (internal/nativejoin) keyed by the build
// tuples' *global dictionary codes*. Build tuples are partitioned by the
// same key hash as the dictionary, so the shard that resolves a probe
// key to its code also owns every build tuple with that key — the
// dictionary lookup can pipe its code straight into the hash probe
// without leaving the shard.
//
// One joinFrame is the whole per-key pipeline as a single hand-written
// coroutine frame: probe the shard's write delta (host-side — the delta
// is a small cache-resident buffer, delta.go), then binary-search the
// dictionary partition (early-load interleaving, as internal/native),
// then — within the same drain — walk the hash-table chain for the
// resulting code via nativejoin.Cursor. A delta-resolved key skips the
// search stage and enters the chain walk directly with its delta code;
// on a service whose dictionary mutates, joins stay consistent with
// lookups because both go through the same delta-then-main composite.
// Chains diverge per key, so batch streams fall out of lockstep; the
// round-robin coro.Slots scheduler absorbs that — stepping each frame
// in place in its by-value slot array and refilling a finished slot in
// the round it finishes — which is exactly the decoupled-control-flow
// case the paper builds coroutines for.

// BuildTuple is one build-side row: a join key from the value domain and
// an opaque payload aggregated by probes.
type BuildTuple struct {
	Key     uint64
	Payload uint32
}

// JoinResult is the outcome of one join probe.
type JoinResult struct {
	// Code is the key's global dictionary code, NotFound if the key is
	// absent from the value domain.
	Code uint32
	// Hits is the number of matching build tuples; Agg the sum of their
	// payloads.
	Hits uint32
	Agg  uint64
	// Dropped marks a probe whose context was cancelled before its shard
	// drained it; the key was never probed.
	Dropped bool
}

// Found reports whether the probe matched at least one build tuple.
func (r JoinResult) Found() bool { return r.Hits > 0 }

// joinOut is the drain-internal result of a composite lookup/join frame.
type joinOut struct {
	code  uint32
	hits  uint32
	agg   uint64
	found bool // key present in the dictionary
}

// joinFrame is the composite coroutine frame: delta probe, dictionary
// binary search, and hash-table chain walk, all live state hand-spilled
// into one flat struct (see internal/native's frameLookup for why
// closures won't do). Frames live by value in the shard's coro.Slots
// array and init resets one in place per key, so a shard drains an
// unbounded request sequence with no per-request allocation.
type joinFrame struct {
	idx  *nativeJoinIndex
	key  uint64
	join bool
	// msink, when non-nil, streams each build-tuple match (payload plus
	// the probe's identity) into the owning batch's per-shard match
	// buffer; probe is the key's index in the partitioned column.
	msink *[]Match
	probe int
	// Dictionary stage: the early-load binary search, embedded by value
	// from internal/native (one state machine, shared with the lookup
	// kernels).
	search native.SearchCursor
	// Probe stage: the chain walk.
	cur   nativejoin.Cursor
	out   joinOut
	stage uint8 // 0 = dictionary search, 1 = chain walk, 2 = resolved
}

// init resets the frame for one key. The delta probe happens here, at
// frame start: a delta-resolved lookup completes on its first Step
// (stage 2) without touching the main index, and a delta-resolved join
// enters the chain walk (stage 1) with its delta code — issuing the
// bucket-head early load immediately, like the search stage would have.
//
//isi:hotpath
func (f *joinFrame) init(x *nativeJoinIndex, dv deltaView, key uint64, join bool, msink *[]Match, probe int) {
	*f = joinFrame{idx: x, key: key, join: join, msink: msink, probe: probe}
	if !dv.empty() {
		if v, oc := dv.lookup(key); oc != deltaMiss {
			if oc == deltaDel {
				f.out = joinOut{code: NotFound}
				f.stage = 2
				return
			}
			f.out = joinOut{code: v, found: true}
			if !join {
				f.stage = 2
				return
			}
			f.cur = x.jt.Start(uint64(v))
			f.stage = 1
			return
		}
	}
	if len(x.table) == 0 {
		f.out = joinOut{code: NotFound}
		f.stage = 2
		return
	}
	f.search = native.StartSearch(x.table, key)
}

//isi:hotpath
func (f *joinFrame) Step() (joinOut, bool) {
	switch f.stage {
	case 0:
		low, done := f.search.Step()
		if !done {
			return joinOut{}, false
		}
		if f.idx.table[low] != f.key {
			return joinOut{code: NotFound}, true
		}
		code := f.idx.codes[low]
		f.out = joinOut{code: code, found: true}
		if !f.join {
			return f.out, true
		}
		// Pipe the code into the hash probe within the same drain: Start
		// issues the bucket-head early load, then suspend.
		f.cur = f.idx.jt.Start(uint64(code))
		f.stage = 1
		return joinOut{}, false
	case 1:
		r, done := f.cur.Step(f.idx.jt)
		if f.msink != nil {
			if payload, hit := f.cur.Matched(); hit {
				*f.msink = append(*f.msink, Match{Probe: f.probe, Key: f.key, Code: f.out.code, Payload: payload}) //isi:allow-alloc(streams into the batch's per-shard match buffer, whose growth amortizes across batches)
			}
		}
		if !done {
			return joinOut{}, false
		}
		f.out.hits = r.Hits
		f.out.agg = r.Agg
		return f.out, true
	default: // resolved at init (delta hit/tombstone, or empty partition)
		return f.out, true
	}
}

// nativeJoinIndex is a shard's join backend: the dictionary partition
// (sorted values + global codes, as nativeIndex) plus the build-side
// hash-table partition, drained together through composite frames. The
// cost unit is wall nanoseconds.
type nativeJoinIndex struct {
	table []uint64
	codes []uint32
	jt    *nativejoin.Table
	// slots holds the composite frames by value, reused across every
	// batch the shard ever drains.
	slots *coro.Slots[joinFrame, joinOut, *joinFrame]
	// rs drains OpRange scans over the dictionary column (ranges are a
	// dictionary operation; the build side is keyed by code and plays no
	// part in them).
	rs *rangeScanner
}

func newNativeJoinIndex(cfg Config, vals []uint64, codes []uint32, jt *nativejoin.Table) *nativeJoinIndex {
	return &nativeJoinIndex{
		table: vals,
		codes: codes,
		jt:    jt,
		slots: coro.NewSlots[joinFrame, joinOut](cfg.MaxGroup),
		rs:    newRangeScanner(cfg),
	}
}

// scanRanges scans the dictionary column, exactly as the lookup backend.
func (x *nativeJoinIndex) scanRanges(ops []Op, limits []int, group int, pairs [][]native.Pair) float64 {
	return x.rs.scan(x.table, x.codes, ops, limits, group, pairs)
}

// rebuild constructs the next-epoch join backend over the merged
// dictionary column. The build-side table is keyed by code, which writes
// edit only through the dictionary mapping, so the table and the frame
// slots carry over — a join install is a pointer swap.
func (x *nativeJoinIndex) rebuild(vals []uint64, codes []uint32) *nativeJoinIndex {
	return &nativeJoinIndex{table: vals, codes: codes, jt: x.jt, slots: x.slots, rs: x.rs}
}

// drainBatch resolves one point sub-batch of mixed lookup/join futures
// against the given delta view and completes their result fields (not
// their done channels — the shard closes those after recording latency).
// Futures pre-marked dropped are skipped through the scheduler's skip
// contract (start returns false): they never occupy a slot and are never
// probed.
// Returns the batch cost in nanoseconds for the controller.
//
//isi:hotpath
func (x *nativeJoinIndex) drainBatch(dv deltaView, sub []*Future, group int) float64 {
	t0 := time.Now()
	x.slots.Drain(len(sub), group,
		//isi:allow-alloc(two closures per batch over the batch's columns; O(1) per batch, not per key)
		func(fr *joinFrame, i int) bool {
			f := sub[i]
			if f.dropped {
				return false
			}
			fr.init(x, dv, f.op.Key, f.op.Kind == OpJoin, nil, i)
			return true
		},
		//isi:allow-alloc(see the start closure above)
		func(i int, r joinOut) {
			f := sub[i]
			f.res = Result{Code: r.code, Found: r.found}
			if f.op.Kind == OpJoin {
				f.jres = JoinResult{Code: r.code, Hits: r.hits, Agg: r.agg}
			}
		})
	return float64(time.Since(t0))
}

// drainSegment resolves one shard segment [lo, hi) of a vectorized
// batch against the given delta view, writing into the batch's
// caller-visible slices; join segments additionally stream every
// build-tuple match into the batch's per-shard match buffer. Returns the
// segment cost in nanoseconds.
//
//isi:hotpath
func (x *nativeJoinIndex) drainSegment(dv deltaView, bf *BatchFuture, shardID, lo, hi, group int) float64 {
	t0 := time.Now()
	join := bf.kind == OpJoin
	var msink *[]Match
	if join {
		msink = &bf.matches[shardID]
	}
	keys := bf.keys[lo:hi]
	x.slots.Drain(len(keys), group,
		//isi:allow-alloc(two closures per batch over the batch's columns; O(1) per batch, not per key)
		func(fr *joinFrame, i int) bool {
			fr.init(x, dv, keys[i], join, msink, lo+i)
			return true
		},
		//isi:allow-alloc(see the start closure above)
		func(i int, r joinOut) {
			bf.res[lo+i] = Result{Code: r.code, Found: r.found}
			if join {
				bf.jres[lo+i] = JoinResult{Code: r.code, Hits: r.hits, Agg: r.agg}
			}
		})
	return float64(time.Since(t0))
}
