package serve

import (
	"math/rand/v2"
	"testing"

	"repro/internal/native"
	"repro/internal/nativejoin"
)

// TestDrainBatchSkipsDroppedEveryGroup drives nativeJoinIndex.drainBatch
// directly over one mixed lookup/join sub-batch with some futures
// pre-marked dropped, at every group from 1 to 33 (past the default
// MaxGroup, so the frame array grows mid-test) on one reused index, with
// and without a non-empty delta view. A dropped future is never probed
// or sunk — its result fields keep their sentinel — and every other
// future resolves through the delta-then-main composite: the view's
// answer if it has one for the key, otherwise native.Baseline over the
// partition, and for a join nativejoin.Table.Probe of the resolved code.
func TestDrainBatchSkipsDroppedEveryGroup(t *testing.T) {
	const n = 1 << 10
	vals := make([]uint64, n)
	codes := make([]uint32, n)
	for i := range vals {
		vals[i] = uint64(i) * 2 // odd keys are absent
		codes[i] = uint32(i)*3 + 1
	}
	rng := rand.New(rand.NewPCG(12, 34))
	jt := nativejoin.New(2 * n)
	for i := range codes {
		for range rng.IntN(4) { // 0–3 build tuples per code
			jt.Insert(uint64(codes[i]), rng.Uint32N(1000))
		}
	}
	for _, c := range []uint32{7001, 7002} { // codes only the delta maps to
		jt.Insert(uint64(c), c)
	}
	x := newNativeJoinIndex(DefaultConfig(), vals, codes, jt)

	// Live part first, then a frozen generation. The live part upserts a
	// present key, inserts an absent one, tombstones a present one, and
	// carries an atomic entry above the read horizon, which must stay
	// invisible; the frozen part is shadowed where the live part repeats
	// a key.
	live := []writeEntry{
		{key: 10, val: 7001},
		{key: 21, val: 7002},
		{key: 40, del: true},
		{key: 60, val: 9999, seq: 9},
	}
	frozen := []writeEntry{
		{key: 10, val: 1},
		{key: 80, del: true},
		{key: 101, val: 7001},
	}
	views := map[string]deltaView{
		"empty": {},
		"delta": {at: 5, parts: [][]writeEntry{live, frozen}},
	}

	const size = 257
	keys := make([]uint64, size)
	for i := range keys {
		keys[i] = rng.Uint64N(2*n + 8)
	}
	copy(keys, []uint64{10, 21, 40, 60, 80, 101, 0, 2*n - 2}) // delta and edge keys
	dropped := func(i int) bool { return i%5 == 2 || i < 3 && i%2 == 0 || i == size-1 }
	sentinel := Result{Code: 0xdead}
	jsentinel := JoinResult{Code: 0xbeef, Hits: 77}

	for name, dv := range views {
		for group := 1; group <= 33; group++ {
			sub := make([]*Future, size)
			for i, k := range keys {
				kind := OpLookup
				if i%3 != 0 {
					kind = OpJoin
				}
				sub[i] = &Future{op: Op{Key: k, Kind: kind}, res: sentinel, jres: jsentinel, dropped: dropped(i)}
			}
			x.drainBatch(dv, sub, group)
			for i, f := range sub {
				if f.dropped {
					if f.res != sentinel || f.jres != jsentinel {
						t.Fatalf("%s/group %d: dropped future %d was probed: res %+v jres %+v", name, group, i, f.res, f.jres)
					}
					continue
				}
				want := Result{Code: NotFound}
				if v, oc := dv.lookup(f.op.Key); oc == deltaHit {
					want = Result{Code: v, Found: true}
				} else if oc == deltaMiss {
					if low := native.Baseline(vals, f.op.Key); vals[low] == f.op.Key {
						want = Result{Code: codes[low], Found: true}
					}
				}
				if f.res != want {
					t.Fatalf("%s/group %d: future %d (key %d) res %+v, want %+v", name, group, i, f.op.Key, f.res, want)
				}
				wantJ := jsentinel
				if f.op.Kind == OpJoin {
					wantJ = JoinResult{Code: want.Code}
					if want.Found {
						p := jt.Probe(uint64(want.Code))
						wantJ.Hits, wantJ.Agg = p.Hits, p.Agg
					}
				}
				if f.jres != wantJ {
					t.Fatalf("%s/group %d: future %d (key %d) jres %+v, want %+v", name, group, i, f.op.Key, f.jres, wantJ)
				}
			}
		}
	}
}
