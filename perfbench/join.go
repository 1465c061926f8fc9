package main

import (
	"context"
	"math/rand/v2"
	"sync"
	"time"

	"repro/internal/serve"
)

// join-column-large: the paper's regime. A dictionary of 64 Mi even keys
// (512 MB, beyond the LLC) and a build side of 4 Mi tuples; two closed-loop
// clients each alternate a 4096-key lookup column (GoBatch) and a 4096-key
// join column (JoinBatch), waiting for each.
const (
	largeDict    = 1 << 26
	largeBuild   = 1 << 22
	buildMult    = 2 // tuples per distinct build key
	columnKeys   = 4096
	largeClients = 2
	largeSetups  = 4
	largeWarmup  = time.Second
	sweepProbes  = 1 << 19
)

// colRec is one column's timeline on the run clock.
type colRec struct {
	seq               int64
	client            int64 // unique per client and phase
	join              bool
	start, ret, done  int64
	keys              int
	failed, completed bool
}

func (r *runner) joinColumnLarge() {
	r.ks = keyspace{n: largeDict}
	bs := newBuildSide(r.ks, largeBuild, buildMult, r.seed)
	values := r.ks.values()
	tuples := bs.tuples()
	var svc *serve.Service
	build := func() func() {
		var err error
		if svc, err = serve.New(values, serviceOpts(serve.WithBuild(tuples))...); err != nil {
			r.fatalf("serve.New: %v", err)
		}
		return func() {
			svc.Close()
			svc = nil // let the collection after teardown free it
		}
	}
	if r.trace {
		r.setups(1, build, func(int) { r.tracedColumns(svc, bs) })
		tuples = nil // the sweep builds its own table; free the service's input first
		r.kernelSweep(values, bs, sweepProbes)
		r.wireCodec(64)
		return
	}
	// The window is split over largeSetups independently built services,
	// each warmed up first: the adaptive group controller takes a different
	// walk in each, and pooling them keeps one walk from setting the result.
	var cols []colRec
	var a, b counters
	r.setups(largeSetups, build, func(i int) {
		r.closedLoop(svc, bs, largeWarmup, uint64(2*i+1))
		a = r.snapshot(svc, nil)
		part := r.closedLoop(svc, bs, r.seconds/largeSetups, uint64(2*i+2))
		b = r.snapshot(svc, nil)
		r.logf("instance %d: %.1f k keys/s", i, columnThroughput(part))
		cols = append(cols, part...)
	})
	r.reportColumns(cols, a, b)
}

// tracedColumns measures the window twice on one service, untraced and then
// traced, for the tracing overhead, and reports the per-layer metrics of the
// traced half.
func (r *runner) tracedColumns(svc *serve.Service, bs buildSide) {
	r.closedLoop(svc, bs, largeWarmup, 1)
	half := max(r.seconds/2, time.Second)
	r.spans.on = false
	plain := r.closedLoop(svc, bs, half, 2)
	r.spans.on = true
	a := r.snapshot(svc, nil)
	cols := r.closedLoop(svc, bs, half, 3)
	b := r.snapshot(svc, nil)
	r.reportColumns(cols, a, b)
	r.set("trace.overhead_frac", columnThroughput(plain)/columnThroughput(cols)-1)
	for i := range cols {
		c := &cols[i]
		r.spans.addOp("serve.admit", "serve.wait", c.seq, c.start, c.start, c.ret, c.done)
	}
	r.set("serve.admit_us_p50", median(r.spans.durations("serve.admit"))/1e3)
	r.set("serve.wait_ms_p50", median(r.spans.durations("serve.wait"))/1e6)
}

// closedLoop runs the column clients for length and returns every column
// they completed. stream separates the phases' seeded key streams.
func (r *runner) closedLoop(svc *serve.Service, bs buildSide, length time.Duration, stream uint64) []colRec {
	start := r.clk.now()
	end := start + int64(length)
	var mu sync.Mutex
	var all []colRec
	var wg sync.WaitGroup
	for c := 0; c < largeClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			id := stream<<8 | uint64(c)
			cols := r.columnClient(svc, bs, end, rand.New(rand.NewPCG(r.seed, id)), int64(id))
			mu.Lock()
			all = append(all, cols...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	var failed int64
	for _, c := range all {
		if c.failed {
			failed++
		}
	}
	r.count(int64(len(all)), failed)
	return all
}

// columnClient is one closed-loop client: it alternates lookup and join
// columns until end, waiting for each (bounded by opDeadline) and checking
// every key's result.
func (r *runner) columnClient(svc *serve.Service, bs buildSide, end int64, rng *rand.Rand, client int64) []colRec {
	keys := make([]uint64, columnKeys)
	var cols []colRec
	timer := time.NewTimer(opDeadline)
	defer timer.Stop()
	for n := int64(0); r.clk.now() < end; n++ {
		join := n%2 == 1
		var sum uint64
		for i := range keys {
			if join {
				keys[i] = r.joinKey(rng, bs)
			} else {
				keys[i] = r.ks.lookupKey(rng.Uint64N(r.ks.n), rng.IntN(10) == 0)
			}
			sum += keys[i]
		}
		c := colRec{seq: n<<16 | client, client: client, join: join, keys: len(keys)}
		c.start = r.clk.now()
		var bf *serve.BatchFuture
		if join {
			bf = svc.JoinBatch(context.Background(), keys)
		} else {
			bf = svc.GoBatch(context.Background(), keys)
		}
		c.ret = r.clk.now()
		timer.Reset(opDeadline)
		select {
		case <-bf.Done():
		case <-timer.C:
			// The future still owns keys: stop this client rather than
			// reuse the slice under it.
			c.failed = true
			return append(cols, c)
		}
		c.done = r.clk.now()
		c.completed = true
		if bf.Err() != nil || bf.Dropped() > 0 {
			c.failed = true
		} else {
			r.checkColumn(bf, bs, join, sum, c.seq)
		}
		cols = append(cols, c)
	}
	return cols
}

// checkColumn checks every key of a completed column against the oracle,
// and that partitioning kept the column's keys.
func (r *runner) checkColumn(bf *serve.BatchFuture, bs buildSide, join bool, sum uint64, seq int64) {
	var got uint64
	keys := bf.Keys()
	if join {
		res := bf.WaitJoin()
		for i, k := range keys {
			got += k
			if err := bs.checkJoin(k, res[i]); err != nil {
				r.fatalf("oracle mismatch on join column #%d key %d: %v", seq, i, err)
			}
		}
	} else {
		res := bf.Wait()
		for i, k := range keys {
			got += k
			if err := r.ks.checkLookup(k, res[i]); err != nil {
				r.fatalf("oracle mismatch on lookup column #%d key %d: %v", seq, i, err)
			}
		}
	}
	if got != sum || len(keys) != columnKeys {
		r.fatalf("oracle mismatch on column #%d: %d keys came back with key sum %d, want %d with sum %d", seq, len(keys), got, columnKeys, sum)
	}
}

// columnThroughput is the completed keys per second (thousands) of
// closed-loop columns, which may pool several phases. Each client's columns
// run back to back, so its busy time is the span from its first submission
// to its last completion, and a phase lasts its clients' mean busy time.
func columnThroughput(cols []colRec) float64 {
	var keys int
	type span struct{ first, last int64 }
	spans := map[int64]span{} // per client of each phase
	for _, c := range cols {
		if !c.completed || c.failed {
			continue
		}
		keys += c.keys
		sp, ok := spans[c.client]
		if !ok {
			sp = span{c.start, c.done}
		}
		spans[c.client] = span{min(sp.first, c.start), max(sp.last, c.done)}
	}
	var busy float64
	for _, sp := range spans {
		busy += float64(sp.last-sp.first) / 1e9
	}
	return ratio(float64(keys)*largeClients, busy) / 1e3
}

// reportColumns sets the closed-loop workload's metrics from a window's
// columns and the counter snapshots around it.
func (r *runner) reportColumns(cols []colRec, a, b counters) {
	var lk, jn []float64
	var keys, failed int64
	for _, c := range cols {
		if c.failed {
			failed++
		}
		if !c.completed || c.failed {
			continue
		}
		keys += int64(c.keys)
		if c.join {
			jn = append(jn, float64(c.done-c.start))
		} else {
			lk = append(lk, float64(c.done-c.start))
		}
	}
	tput := columnThroughput(cols)
	for _, sh := range b.serve.Shards {
		r.logf("shard %d: final group %d, mean kernel batch %.0f", sh.Shard, sh.Group, sh.AvgBatch)
	}
	r.logf("window: %d lookup columns, %d join columns, %d failed, %.1f k keys/s", len(lk), len(jn), failed, tput)
	r.set("throughput_kops", tput)
	r.set("lookup_mean_ms", mean(lk)/1e6)
	r.set("op.lookup_p50_ms", percentile(lk, 50)/1e6)
	r.set("lookup_p90_ms", percentile(lk, 90)/1e6)
	r.set("op.lookup_p99_ms", percentile(lk, 99)/1e6)
	r.set("op.join_p50_ms", percentile(jn, 50)/1e6)
	r.set("op.join_p99_ms", percentile(jn, 99)/1e6)
	r.set("op.failed_frac", ratio(float64(failed), float64(len(cols))))
	if !r.trace {
		return
	}
	for _, m := range []string{"op.write_p50_ms", "op.write_p99_ms", "op.range_p50_ms", "op.range_p99_ms",
		"client.submit_us_p50", "serve.range_entries_per_range"} {
		r.set(m, 0)
	}
	r.set("workload.offered_kops", tput)
	r.set("workload.gen_late_p99_ms", 0)
	r.set("workload.sustained_kops", 0)
	r.layerCounters(a, b, keys)
}
