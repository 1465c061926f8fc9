package main

import (
	"fmt"

	"repro/internal/serve"
)

// keyspace is a workload's dictionary: n even keys, code i ↔ key 2i, with
// n a power of two. Odd keys below 2n are absent and are what the absent-key
// probes draw; odd keys at or above 2n are the churn region, where writes
// insert and delete keys that no read ever touches, so every read has exactly
// one right answer while writes run beside it.
type keyspace struct {
	n uint64
}

func (k keyspace) values() []uint64 {
	vs := make([]uint64, k.n)
	for i := range vs {
		vs[i] = 2 * uint64(i)
	}
	return vs
}

// lookupKey maps a uniform draw u < n to a probe key: present (2u) unless
// absent is set, in which case the odd neighbour 2u+1.
func (k keyspace) lookupKey(u uint64, absent bool) uint64 {
	if absent {
		return 2*u + 1
	}
	return 2 * u
}

// churnKey is the j-th key the write stream inserts and later deletes.
func (k keyspace) churnKey(j uint64) uint64 { return 2*k.n + 1 + 2*j }

// lookup is the expected result of a lookup of key.
func (k keyspace) lookup(key uint64) serve.Result {
	if key%2 == 0 && key/2 < k.n {
		return serve.Result{Code: uint32(key / 2), Found: true}
	}
	return serve.Result{Code: serve.NotFound}
}

// checkLookup compares a lookup result against the dictionary.
func (k keyspace) checkLookup(key uint64, got serve.Result) error {
	if want := k.lookup(key); got != want {
		return fmt.Errorf("lookup key %d: got %+v, want %+v", key, got, want)
	}
	return nil
}

// checkWrite checks a write acknowledgement against serve.Result's documented form:
// an insert acks {Code: Val, Found: true}, a delete {Code: NotFound}.
func checkWrite(op serve.Op, got serve.Result) error {
	want := serve.Result{Code: serve.NotFound}
	if op.Kind == serve.OpInsert {
		want = serve.Result{Code: op.Val, Found: true}
	}
	if got != want {
		return fmt.Errorf("%s key %d val %d: got ack %+v, want %+v", op.Kind, op.Key, op.Val, got, want)
	}
	return nil
}

// checkRange checks a range's entries: ascending, inside [lo, hi], and
// exactly the even keys of the dictionary in that interval with their codes.
// Ranges never reach the churn region, so writes cannot change the answer.
func (k keyspace) checkRange(lo, hi uint64, got []serve.RangeEntry) error {
	first := (lo + 1) / 2 // smallest i with 2i >= lo
	last := hi / 2        // largest i with 2i <= hi
	if last >= k.n {
		last = k.n - 1
	}
	want := 0
	if last >= first {
		want = int(last - first + 1)
	}
	if len(got) != want {
		return fmt.Errorf("range [%d, %d]: got %d entries, want %d", lo, hi, len(got), want)
	}
	for j, e := range got {
		i := first + uint64(j)
		if e.Key != 2*i || e.Code != uint32(i) {
			return fmt.Errorf("range [%d, %d]: entry %d is {key %d code %d}, want {key %d code %d}", lo, hi, j, e.Key, e.Code, 2*i, i)
		}
	}
	return nil
}

// buildSide is a seeded join build relation over a keyspace whose tuples the
// oracle can recount without storing them: distinct keys 2·perm(x) for
// x < distinct, each repeated mult times, where perm is an affine bijection
// of [0, n) (odd stride, so invertible mod the power-of-two n). Tuple j has
// key 2·perm(j/mult) and payload payloadOf(j).
type buildSide struct {
	ks       keyspace
	distinct uint64
	mult     uint64
	stride   uint64 // odd
	inv      uint64 // stride⁻¹ mod 2^64
	off      uint64
	salt     uint64
}

func newBuildSide(ks keyspace, tuples, mult, seed uint64) buildSide {
	stride := splitmix(seed)<<1 | 1
	inv := stride // Newton's iteration doubles the correct low bits each step.
	for i := 0; i < 6; i++ {
		inv *= 2 - stride*inv
	}
	return buildSide{ks: ks, distinct: tuples / mult, mult: mult, stride: stride, inv: inv,
		off: splitmix(seed + 1), salt: splitmix(seed + 2)}
}

func (b buildSide) perm(x uint64) uint64   { return (x*b.stride + b.off) & (b.ks.n - 1) }
func (b buildSide) unperm(u uint64) uint64 { return ((u - b.off) * b.inv) & (b.ks.n - 1) }
func (b buildSide) payloadOf(j uint64) uint32 {
	return uint32(splitmix(j ^ b.salt))
}

// tuples materializes the build relation.
func (b buildSide) tuples() []serve.BuildTuple {
	ts := make([]serve.BuildTuple, b.distinct*b.mult)
	for j := range ts {
		ts[j] = serve.BuildTuple{Key: 2 * b.perm(uint64(j)/b.mult), Payload: b.payloadOf(uint64(j))}
	}
	return ts
}

// hitKey maps a uniform draw x < distinct to a probe key that matches.
func (b buildSide) hitKey(x uint64) uint64 { return 2 * b.perm(x) }

// join is the expected outcome of a join probe of key.
func (b buildSide) join(key uint64) serve.JoinResult {
	r := b.ks.lookup(key)
	want := serve.JoinResult{Code: r.Code}
	if !r.Found {
		return want
	}
	if x := b.unperm(key / 2); x < b.distinct {
		want.Hits = uint32(b.mult)
		for m := uint64(0); m < b.mult; m++ {
			want.Agg += uint64(b.payloadOf(x*b.mult + m))
		}
	}
	return want
}

// checkJoin compares a join result against the build-side oracle.
func (b buildSide) checkJoin(key uint64, got serve.JoinResult) error {
	if want := b.join(key); got != want {
		return fmt.Errorf("join key %d: got %+v, want %+v", key, got, want)
	}
	return nil
}

// splitmix is the SplitMix64 finalizer, used to derive seeded constants.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}
