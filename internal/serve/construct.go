package serve

// Construction: New splits the sorted value domain and the build side
// into per-shard columns in time linear in both, one goroutine per
// shard. The domain and the build side are each cut into one contiguous
// chunk per goroutine; a counting pass sizes every shard's columns
// exactly, and a scatter pass fills them at precomputed offsets, so
// each input element is hashed twice whatever the shard count, no
// column is grown by appending, and no two goroutines write the same
// element. Chunks are laid out in input order, so a shard's columns keep
// the global order: its values stay sorted and its build tuples keep
// their original order. Each shard then resolves its build keys
// against its own sorted partition with the interleaved group-prefetch
// search (native.RunGP) instead of one binary search per tuple over the
// whole domain.

import (
	"sync"

	"repro/internal/native"
	"repro/internal/nativejoin"
)

// resolveGroup is the interleaving group of the build-key resolve. It
// is fixed rather than tuned by the shard controller: construction is
// one pass with no batch stream to tune over, and a group in the
// paper's 6–10 knee or just above it keeps the shard partition's
// misses overlapped once it outgrows the LLC.
const resolveGroup = 16

// resolveBlock is the number of build keys resolved per RunGP call; it
// bounds the search-position buffer.
const resolveBlock = 4096

// shardPart is one shard's share of New's inputs: its slice of the
// domain (sorted values and their global codes) and the build tuples
// whose keys hash to it, in tuple order.
type shardPart struct {
	vals     []uint64
	codes    []uint32
	buildKey []uint64
	buildPay []uint32
}

// strictlyIncreasing reports whether vs is sorted with no duplicates,
// the form New can partition without copying.
func strictlyIncreasing(vs []uint64) bool {
	for i := 1; i < len(vs); i++ {
		if vs[i-1] >= vs[i] {
			return false
		}
	}
	return true
}

// eachShard runs fn(0) … fn(n-1) on n goroutines and returns once all
// of them have returned.
func eachShard(n int, fn func(i int)) {
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
}

// chunk returns the bounds of the c-th of w contiguous, near-equal
// pieces of [0, n).
func chunk(n, c, w int) (lo, hi int) {
	return c * n / w, (c + 1) * n / w
}

// partition splits the strictly increasing domain sorted, and build,
// across shards by key hash (shardOf). A value's code is its position in
// sorted. Neither input is retained: every returned column is freshly
// allocated at its exact length.
func partition(sorted []uint64, build []BuildTuple, shards int) []shardPart {
	// Counting pass: chunk c's per-shard counts land in row c of valCnt
	// and buildCnt.
	w := shards // one chunk per shard goroutine
	valCnt := make([]int, w*shards)
	buildCnt := make([]int, w*shards)
	eachShard(w, func(c int) {
		// Count into goroutine-local rows; adjacent rows share cache lines.
		vc, bc := make([]int, shards), make([]int, shards)
		lo, hi := chunk(len(sorted), c, w)
		for _, v := range sorted[lo:hi] {
			vc[shardOf(v, shards)]++
		}
		lo, hi = chunk(len(build), c, w)
		for _, t := range build[lo:hi] {
			bc[shardOf(t.Key, shards)]++
		}
		copy(valCnt[c*shards:], vc)
		copy(buildCnt[c*shards:], bc)
	})

	// An exclusive prefix sum down each shard's column of counts turns
	// them into every chunk's first write offset in that shard.
	parts := make([]shardPart, shards)
	for s := range parts {
		nv, nb := 0, 0
		for c := 0; c < w; c++ {
			k := c*shards + s
			valCnt[k], nv = nv, nv+valCnt[k]
			buildCnt[k], nb = nb, nb+buildCnt[k]
		}
		parts[s] = shardPart{
			vals:     make([]uint64, nv),
			codes:    make([]uint32, nv),
			buildKey: make([]uint64, nb),
			buildPay: make([]uint32, nb),
		}
	}

	// Scatter pass: each chunk writes only its own offset ranges.
	eachShard(w, func(c int) {
		pos := append([]int(nil), valCnt[c*shards:(c+1)*shards]...)
		lo, hi := chunk(len(sorted), c, w)
		for j := lo; j < hi; j++ {
			v := sorted[j]
			s := shardOf(v, shards)
			parts[s].vals[pos[s]] = v
			parts[s].codes[pos[s]] = uint32(j)
			pos[s]++
		}
		copy(pos, buildCnt[c*shards:(c+1)*shards])
		lo, hi = chunk(len(build), c, w)
		for _, t := range build[lo:hi] {
			s := shardOf(t.Key, shards)
			parts[s].buildKey[pos[s]] = t.Key
			parts[s].buildPay[pos[s]] = t.Payload
			pos[s]++
		}
	})
	return parts
}

// joinTable resolves the shard's build keys to global codes against its
// own sorted partition and loads the tuples that resolve into a
// build-side hash table, in original tuple order (so chains, and the
// order Matches reports, are those of inserting the build side tuple by
// tuple). Tuples whose key is absent from the domain are dropped. It
// overwrites buildKey with the resolved codes.
func (p *shardPart) joinTable() *nativejoin.Table {
	if len(p.vals) == 0 {
		return nativejoin.New(0)
	}
	const unresolved = uint64(NotFound) // no code reaches NotFound
	hits := 0
	pos := make([]int, min(resolveBlock, len(p.buildKey)))
	for b0 := 0; b0 < len(p.buildKey); b0 += resolveBlock {
		keys := p.buildKey[b0:min(b0+resolveBlock, len(p.buildKey))]
		native.RunGP(p.vals, keys, resolveGroup, pos)
		for j, k := range keys {
			if i := pos[j]; p.vals[i] == k {
				keys[j] = uint64(p.codes[i])
				hits++
			} else {
				keys[j] = unresolved
			}
		}
	}
	jt := nativejoin.New(hits)
	for j, code := range p.buildKey {
		if code != unresolved {
			jt.Insert(code, p.buildPay[j])
		}
	}
	return jt
}
