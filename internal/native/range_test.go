package native

import (
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/coro"
)

// bruteRange is the reference: linear scan of the whole table.
func bruteRange(table []uint64, codes []uint32, lo, hi uint64, limit int) []Pair {
	var out []Pair
	for i, k := range table {
		if k < lo || k > hi {
			continue
		}
		out = append(out, Pair{Key: k, Code: codes[i]})
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// TestRangeSeekScanVsBrute checks the sequential seek+scan against the
// linear reference over randomized tables and queries, including empty
// tables, inverted ranges, out-of-range bounds, and limits.
func TestRangeSeekScanVsBrute(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for iter := 0; iter < 200; iter++ {
		n := int(rng.Uint64N(50))
		table := make([]uint64, 0, n)
		for k := uint64(0); len(table) < n; k += 1 + rng.Uint64N(4) {
			table = append(table, k)
		}
		codes := make([]uint32, n)
		for i := range codes {
			codes[i] = rng.Uint32N(1000)
		}
		for q := 0; q < 20; q++ {
			lo := rng.Uint64N(120)
			hi := rng.Uint64N(120) // may invert: must be empty then
			limit := 0
			if rng.Uint64N(2) == 0 {
				limit = 1 + int(rng.Uint64N(5))
			}
			var got []Pair
			emitted := RangeSeekScan(table, codes, lo, hi, limit, &got)
			want := bruteRange(table, codes, lo, hi, limit)
			if !slices.Equal(got, want) || emitted != len(want) {
				t.Fatalf("iter %d: seek-scan [%d,%d] limit %d = %v (n=%d), want %v",
					iter, lo, hi, limit, got, emitted, want)
			}
		}
	}
}

// TestRangeCursorMatchesSequential drives the interleaved cursor — both
// standalone and through coro.Slots at several group sizes — and
// asserts it emits exactly what the sequential kernel does.
func TestRangeCursorMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	const n = 512
	table := make([]uint64, n)
	codes := make([]uint32, n)
	for i := range table {
		table[i] = uint64(i) * 3
		codes[i] = uint32(i)
	}
	type query struct {
		lo, hi uint64
		limit  int
	}
	queries := make([]query, 64)
	for i := range queries {
		lo := rng.Uint64N(3 * n)
		queries[i] = query{lo: lo, hi: lo + rng.Uint64N(200)}
		if i%3 == 0 {
			queries[i].limit = 1 + int(rng.Uint64N(9))
		}
	}
	want := make([][]Pair, len(queries))
	for i, q := range queries {
		RangeSeekScan(table, codes, q.lo, q.hi, q.limit, &want[i])
	}
	for _, group := range []int{1, 2, 6, 16, 64, 100} {
		got := make([][]Pair, len(queries))
		counts := make([]int, len(queries))
		coro.NewSlots[RangeCursor, int](group).Drain(len(queries), group,
			func(c *RangeCursor, i int) bool {
				*c = StartRangeScan(table, codes, queries[i].lo, queries[i].hi, queries[i].limit, &got[i])
				return true
			},
			func(i, emitted int) { counts[i] = emitted })
		for i := range queries {
			if !slices.Equal(got[i], want[i]) || counts[i] != len(want[i]) {
				t.Fatalf("group %d query %d (%+v): got %v (n=%d), want %v",
					group, i, queries[i], got[i], counts[i], want[i])
			}
		}
	}
}

// TestRangeCursorEmptyTable: the cursor must complete without touching
// the (absent) table.
func TestRangeCursorEmptyTable(t *testing.T) {
	var out []Pair
	c := StartRangeScan(nil, nil, 0, 100, 0, &out)
	for {
		n, done := c.Step()
		if done {
			if n != 0 || len(out) != 0 {
				t.Fatalf("empty-table scan emitted %d entries: %v", n, out)
			}
			return
		}
	}
}
