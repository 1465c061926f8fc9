package serve

import (
	"context"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/nativejoin"
)

// refConstruct is the reference construction New is checked against:
// copy, sort and compact the domain, partition it by appending, resolve
// every build tuple with a binary search over the whole domain, and
// insert the resolved tuples into each shard's table in tuple order.
// It returns the sorted domain with every shard's columns and tables
// (tabs is nil without a build side).
func refConstruct(values []uint64, build []BuildTuple, hasBuild bool, shards int) (sorted []uint64, vals [][]uint64, codes [][]uint32, tabs []*nativejoin.Table) {
	sorted = append([]uint64(nil), values...)
	slices.Sort(sorted)
	sorted = slices.Compact(sorted)
	vals = make([][]uint64, shards)
	codes = make([][]uint32, shards)
	for code, v := range sorted {
		i := shardOf(v, shards)
		vals[i] = append(vals[i], v)
		codes[i] = append(codes[i], uint32(code))
	}
	if !hasBuild {
		return sorted, vals, codes, nil
	}
	type resolved struct {
		shard   int
		code    uint32
		payload uint32
	}
	var res []resolved
	counts := make([]int, shards)
	for _, t := range build {
		if code, ok := slices.BinarySearch(sorted, t.Key); ok {
			sh := shardOf(t.Key, shards)
			res = append(res, resolved{shard: sh, code: uint32(code), payload: t.Payload})
			counts[sh]++
		}
	}
	tabs = make([]*nativejoin.Table, shards)
	for i := range tabs {
		tabs[i] = nativejoin.New(counts[i])
	}
	for _, r := range res {
		tabs[r.shard].Insert(uint64(r.code), r.payload)
	}
	return sorted, vals, codes, tabs
}

// constructionDomains are the value domains of the construction
// differential: the no-copy path (strictly increasing) and every form
// that takes the copy, sort and compact path.
func constructionDomains() map[string][]uint64 {
	rng := rand.New(rand.NewPCG(13, 1))
	sorted := testDomain(3000, 2)
	unsorted := slices.Clone(sorted)
	rng.Shuffle(len(unsorted), func(i, j int) { unsorted[i], unsorted[j] = unsorted[j], unsorted[i] })
	dups := make([]uint64, 3000)
	for i := range dups {
		dups[i] = 2 * rng.Uint64N(500)
	}
	sortedDups := make([]uint64, 0, 2*len(sorted))
	for _, v := range sorted {
		sortedDups = append(sortedDups, v, v)
	}
	wide := make([]uint64, 2000)
	for i := range wide {
		wide[i] = rng.Uint64() &^ 1
	}
	slices.Sort(wide)
	wide = slices.Compact(wide)
	return map[string][]uint64{
		"sorted":      sorted,
		"unsorted":    unsorted,
		"duplicates":  dups,
		"sorted-dups": sortedDups,
		"wide-sorted": wide,
		"single":      {42},
		"empty":       nil,
	}
}

// constructionBuilds are the build sides of the construction
// differential over a deduplicated domain dom: none, keys missing from
// the domain mixed with present ones, Zipf-skewed multiplicity, and
// runs of one key.
func constructionBuilds(dom []uint64) map[string][]BuildTuple {
	rng := rand.New(rand.NewPCG(17, 3))
	key := func() uint64 {
		if len(dom) == 0 || rng.IntN(10) < 3 {
			return 2*rng.Uint64N(4000) + 1 // odd: never in a domain
		}
		return dom[rng.IntN(len(dom))]
	}
	mixed := make([]BuildTuple, 2000)
	for j := range mixed {
		mixed[j] = BuildTuple{Key: key(), Payload: uint32(j)}
	}
	var skewed []BuildTuple
	if len(dom) > 0 {
		zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(dom)-1))
		skewed = make([]BuildTuple, 3000)
		for j := range skewed {
			skewed[j] = BuildTuple{Key: dom[zipf.Uint64()], Payload: uint32(j)}
		}
	}
	var runs []BuildTuple
	for j := 0; j < 200; j++ {
		k := key()
		for r := 0; r < 1+j%6; r++ {
			runs = append(runs, BuildTuple{Key: k, Payload: uint32(len(runs))})
		}
	}
	return map[string][]BuildTuple{
		"empty":  {},
		"mixed":  mixed,
		"zipf":   skewed,
		"runs":   runs,
		"absent": {{Key: 1}, {Key: 3}, {Key: ^uint64(0)}},
	}
}

// chainPayloads is the payload sequence ProbeEach emits for key.
func chainPayloads(jt *nativejoin.Table, key uint64) []uint32 {
	var out []uint32
	jt.ProbeEach(key, func(p uint32) { out = append(out, p) })
	return out
}

// TestConstructionMatchesReference is the construction differential:
// over sorted, unsorted, duplicated and empty domains, build sides with
// absent, duplicated and Zipf-skewed keys, and 1–7 shards, every
// shard's columns and build-side table equal the reference
// construction's, and every build key's chain emits the same payloads
// in the same order.
func TestConstructionMatchesReference(t *testing.T) {
	for dname, values := range constructionDomains() {
		sorted, _, _, _ := refConstruct(values, nil, false, 1)
		builds := constructionBuilds(sorted)
		for shards := 1; shards <= 7; shards++ {
			// The lookup-only service first (nil build), then every build side.
			checkConstruction(t, dname+"/lookup", values, nil, false, shards)
			for bname, build := range builds {
				checkConstruction(t, dname+"/"+bname, values, build, true, shards)
			}
		}
	}
}

func checkConstruction(t *testing.T, name string, values []uint64, build []BuildTuple, hasBuild bool, shards int) {
	t.Helper()
	opts := []Option{WithShards(shards)}
	if hasBuild {
		opts = append(opts, WithBuild(build))
	}
	s, err := New(values, opts...)
	if err != nil {
		t.Fatalf("%s shards=%d: %v", name, shards, err)
	}
	defer s.Close()
	sorted, vals, codes, tabs := refConstruct(values, build, hasBuild, shards)
	for i, sh := range s.shards {
		ep := sh.epoch.Load()
		if !slices.Equal(ep.vals, vals[i]) || !slices.Equal(ep.codes, codes[i]) {
			t.Fatalf("%s shards=%d: shard %d partition differs from the reference", name, shards, i)
		}
		if !hasBuild {
			continue
		}
		if !reflect.DeepEqual(ep.joinIdx.jt, tabs[i]) {
			t.Fatalf("%s shards=%d: shard %d build table differs from the reference", name, shards, i)
		}
	}
	seen := make(map[uint64]bool, len(build))
	for _, bt := range build {
		code, ok := slices.BinarySearch(sorted, bt.Key)
		if !ok || seen[bt.Key] {
			continue
		}
		seen[bt.Key] = true
		i := shardOf(bt.Key, shards)
		got := chainPayloads(s.shards[i].epoch.Load().joinIdx.jt, uint64(code))
		if want := chainPayloads(tabs[i], uint64(code)); !slices.Equal(got, want) {
			t.Fatalf("%s shards=%d: key %d emits %v, reference %v", name, shards, bt.Key, got, want)
		}
	}
}

// joinOutcome is everything a probe of one key reports: its lookup
// result, its join aggregate and its match payloads in emission order.
type joinOutcome struct {
	res      Result
	jres     JoinResult
	payloads []uint32
}

// probeAll looks up and joins every key through the vectorized path and
// returns the outcomes by key.
func probeAll(t *testing.T, s *Service, keys []uint64) map[uint64]joinOutcome {
	t.Helper()
	ctx := context.Background()
	lk := s.GoBatch(ctx, slices.Clone(keys))
	jk := s.JoinBatch(ctx, slices.Clone(keys))
	out := make(map[uint64]joinOutcome, len(keys))
	for i, r := range lk.Wait() {
		o := out[lk.Keys()[i]]
		o.res = r
		out[lk.Keys()[i]] = o
	}
	for i, r := range jk.WaitJoin() {
		o := out[jk.Keys()[i]]
		o.jres = r
		out[jk.Keys()[i]] = o
	}
	for m := range jk.Matches() {
		o := out[m.Key]
		o.payloads = append(o.payloads, m.Payload)
		out[m.Key] = o
	}
	return out
}

// TestNewReadsInputsOnlyDuringCall: New leaves values and the build
// slice byte-identical, sorted or not, and mutating both afterwards
// changes no lookup, join aggregate or match order.
func TestNewReadsInputsOnlyDuringCall(t *testing.T) {
	for _, shuffled := range []bool{false, true} {
		rng := rand.New(rand.NewPCG(5, 7))
		values := testDomain(4096, 3)
		if shuffled {
			rng.Shuffle(len(values), func(i, j int) { values[i], values[j] = values[j], values[i] })
		}
		build := make([]BuildTuple, 6000)
		for j := range build {
			build[j] = BuildTuple{Key: 3 * rng.Uint64N(4500), Payload: uint32(j)}
		}
		keys := testDomain(4600, 3)
		for k := range uint64(64) {
			keys = append(keys, 3*k+1)
		}
		valCopy, buildCopy := slices.Clone(values), slices.Clone(build)

		s, err := New(values, WithShards(3), WithBuild(build), WithAdmission(0, 50*time.Microsecond))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(values, valCopy) || !slices.Equal(build, buildCopy) {
			s.Close()
			t.Fatalf("shuffled=%v: New modified its inputs", shuffled)
		}
		before := probeAll(t, s, keys)
		for i := range values {
			values[i] = ^values[i]
		}
		for j := range build {
			build[j] = BuildTuple{Key: build[(j+1)%len(build)].Key + 1, Payload: 7}
		}
		after := probeAll(t, s, keys)
		s.Close()

		sorted, _, _, tabs := refConstruct(valCopy, buildCopy, true, 3)
		for _, k := range keys {
			want := joinOutcome{res: Result{Code: NotFound}, jres: JoinResult{Code: NotFound}}
			if code, ok := slices.BinarySearch(sorted, k); ok {
				want.res = Result{Code: uint32(code), Found: true}
				want.payloads = chainPayloads(tabs[shardOf(k, 3)], uint64(code))
				r := tabs[shardOf(k, 3)].Probe(uint64(code))
				want.jres = JoinResult{Code: uint32(code), Hits: r.Hits, Agg: r.Agg}
			}
			if !reflect.DeepEqual(before[k], want) || !reflect.DeepEqual(after[k], want) {
				t.Fatalf("shuffled=%v key %d: before mutation %+v, after %+v, want %+v",
					shuffled, k, before[k], after[k], want)
			}
		}
	}
}

// TestNewJoinsConstructionGoroutines: a New that fails, before or during
// the concurrent per-shard construction, leaves no goroutine behind.
func TestNewJoinsConstructionGoroutines(t *testing.T) {
	for name, tc := range map[string]struct {
		values []uint64
		opts   []Option
	}{
		"tree-wide-domain": {[]uint64{1, 1 << 32}, []Option{WithBackend(SimTree), WithShards(3)}},
		"unknown-backend":  {testDomain(5000, 1), []Option{WithBackend(IndexKind(99)), WithShards(5)}},
	} {
		base := runtime.NumGoroutine()
		if s, err := New(tc.values, tc.opts...); err == nil {
			s.Close()
			t.Fatalf("%s: New succeeded", name)
		}
		// A goroutine that has signalled completion may still be
		// unwinding; give it a moment, but never a leak.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("%s: %d goroutines after the failed New, %d before", name, n, base)
		}
	}
}

// BenchmarkNewJoin times New over a sorted 4 Mi-value domain (32 MB)
// with a 256 Ki-tuple build side on 2 shards, about one key in nine
// absent from the domain: the partition, the build resolve and the
// table load. It reports the build time per domain value and per build
// tuple.
func BenchmarkNewJoin(b *testing.B) {
	const nVals, nBuild = 1 << 22, 1 << 18
	values := testDomain(nVals, 2)
	rng := rand.New(rand.NewPCG(1, 2))
	build := make([]BuildTuple, nBuild)
	for j := range build {
		build[j] = BuildTuple{Key: 2 * rng.Uint64N(nVals+nVals/8), Payload: uint32(j)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := New(values, WithShards(2), WithBuild(build))
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		s.Close()
		b.StartTimer()
	}
	ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(ns/nVals, "ns/value")
	b.ReportMetric(ns/nBuild, "ns/tuple")
}
