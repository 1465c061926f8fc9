package main

import (
	"bufio"
	"fmt"
	"math/rand/v2"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"repro/client"
	"repro/internal/native"
	"repro/internal/nativejoin"
	"repro/internal/serve"
	"repro/internal/wire"
)

// counters is one snapshot of every public counter the benchmark reads, taken
// at a window boundary.
type counters struct {
	at     int64 // run clock
	serve  serve.Stats
	client client.Stats
	rt     [3]float64 // runtime/metrics: heap alloc bytes, GC CPU s, total CPU s
}

var rtNames = [3]string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func (r *runner) snapshot(svc *serve.Service, rem *client.Remote) counters {
	c := counters{at: r.clk.now(), serve: svc.Stats()}
	if rem != nil {
		c.client = rem.Stats()
	}
	samples := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			c.rt[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			c.rt[i] = s.Value.Float64()
		}
	}
	return c
}

// layerCounters sets the per-layer metrics read from counter deltas over a
// window of ops completed operations.
func (r *runner) layerCounters(a, b counters, ops int64) {
	window := float64(b.at-a.at) / 1e9
	shards := float64(len(b.serve.Shards))
	var items, batches, busy, writes, group float64
	for i, sb := range b.serve.Shards {
		sa := a.serve.Shards[i]
		items += float64(sb.Items - sa.Items)
		writes += float64(sb.Inserts - sa.Inserts + sb.Deletes - sa.Deletes)
		batches += float64(sb.Batches - sa.Batches)
		busy += (sb.Busy - sa.Busy).Seconds()
		group += float64(sb.Group)
	}
	kernelItems := items - writes
	r.set("serve.kernel_batch_mean", ratio(kernelItems, batches))
	r.set("serve.kernel_busy_frac", ratio(busy, window*shards))
	r.set("serve.kernel_kops_per_shard", ratio(kernelItems, busy)/1e3) // busy is summed over shards
	r.set("serve.group_mean", ratio(group, shards))
	r.set("serve.write_busy_frac", ratio((b.serve.WriteBusy-a.serve.WriteBusy).Seconds(), window*shards))
	r.set("serve.rebuilds", float64(b.serve.Rebuilds-a.serve.Rebuilds))
	r.set("serve.rebuild_pause_max_us", float64(b.serve.MaxRebuildPause)/1e3)
	r.set("serve.write_stalls", float64(b.serve.WriteStalls-a.serve.WriteStalls))
	r.set("serve.dropped", float64(b.serve.Dropped-a.serve.Dropped))

	cops := float64(b.client.Ops - a.client.Ops)
	r.set("client.ops_per_frame", ratio(cops, float64(b.client.FramesOut-a.client.FramesOut)))
	r.set("client.bytes_per_op", ratio(float64(b.client.BytesIn-a.client.BytesIn+b.client.BytesOut-a.client.BytesOut), cops))
	r.set("client.wait_p50_ms", float64(b.client.P50)/1e6)

	r.set("go.alloc_bytes_per_op", ratio(b.rt[0]-a.rt[0], float64(ops)))
	r.set("go.gc_cpu_frac", ratio(b.rt[1]-a.rt[1], b.rt[2]-a.rt[2]))
}

// kernelSweep times the native lookup kernels and the nativejoin probe
// kernels directly on the workload's own table and build side, sequential
// and frame-coroutine interleaved at each group size, checking every answer.
// It is the service-independent view of the paper's claim: interleaving pays
// once the table is beyond the LLC and costs a little when it fits.
func (r *runner) kernelSweep(table []uint64, bs buildSide, probes int) {
	rng := rand.New(rand.NewPCG(r.seed, 901))
	keys := make([]uint64, probes)
	for i := range keys {
		keys[i] = r.ks.lookupKey(rng.Uint64N(r.ks.n), rng.IntN(10) == 0)
	}
	out := make([]int, probes)
	check := func(what string) {
		for i, k := range keys {
			if out[i] != int(k/2) {
				r.fatalf("%s: lookup %d of key %d returned index %d, want %d", what, i, k, out[i], k/2)
			}
		}
	}
	timeIt := func(name string, run func()) float64 {
		run() // warm the code path and the TLB
		best := time.Duration(1<<63 - 1)
		for rep := 0; rep < 3; rep++ {
			start := r.clk.now()
			run()
			end := r.clk.now()
			r.spans.add(name, start, end, -1, int64(rep))
			best = min(best, time.Duration(end-start))
		}
		return float64(best.Nanoseconds()) / float64(probes)
	}
	seq := timeIt("native.run", func() { native.RunSequential(table, keys, out) })
	check("native.RunSequential")
	r.set("native.seq_ns", seq)
	best := seq
	for _, g := range sweepGroups {
		ns := timeIt("native.run", func() { native.RunCoro(table, keys, g, out, native.Frame) })
		check(fmt.Sprintf("native.RunCoro G=%d", g))
		r.set(fmt.Sprintf("native.coro_ns.g%d", g), ns)
		best = min(best, ns)
	}
	r.set("native.interleave_speedup", seq/best)

	tuples := bs.tuples()
	jt := nativejoin.New(len(tuples))
	for _, t := range tuples {
		jt.Insert(t.Key, t.Payload)
	}
	tuples = nil
	jkeys := make([]uint64, probes)
	for i := range jkeys {
		jkeys[i] = r.joinKey(rng, bs)
	}
	jout := make([]nativejoin.Result, probes)
	hits := 0
	jcheck := func(what string) {
		hits = 0
		for i, k := range jkeys {
			want := bs.join(k)
			if got := jout[i]; got.Hits != want.Hits || got.Agg != want.Agg {
				r.fatalf("%s: probe %d of key %d got %+v, want hits %d agg %d", what, i, k, got, want.Hits, want.Agg)
			}
			if want.Hits > 0 {
				hits++
			}
		}
	}
	jseq := timeIt("nativejoin.run", func() { jt.RunSequential(jkeys, jout) })
	jcheck("nativejoin.RunSequential")
	r.set("nativejoin.seq_ns", jseq)
	for _, g := range sweepGroups {
		ns := timeIt("nativejoin.run", func() { jt.RunCoroReuse(jkeys, g, jout) })
		jcheck(fmt.Sprintf("nativejoin.RunCoroReuse G=%d", g))
		r.set(fmt.Sprintf("nativejoin.coro_ns.g%d", g), ns)
	}
	r.set("nativejoin.hit_ratio", float64(hits)/float64(probes))
}

var sweepGroups = []int{1, 2, 4, 8, 16}

// joinKey draws a join probe: nine in ten hit a build tuple, the rest are
// absent (odd) keys. Uniform probes over the whole dictionary would hit the
// build side only len(build)/n of the time.
func (r *runner) joinKey(rng *rand.Rand, bs buildSide) uint64 {
	if rng.IntN(10) == 0 {
		return r.ks.lookupKey(rng.Uint64N(r.ks.n), true)
	}
	return bs.hitKey(rng.Uint64N(bs.distinct))
}

// wireCodec times the frame codec on lookup frames of opsPerFrame keys:
// request encode + response encode, and request decode + response decode,
// per op. These are the client's and the server's framing costs.
func (r *runner) wireCodec(opsPerFrame int) {
	opsPerFrame = max(opsPerFrame, 1)
	keys := make([]uint64, opsPerFrame)
	res := make([]wire.Result, opsPerFrame)
	for i := range keys {
		keys[i] = 2 * uint64(i)
		res[i] = wire.Result{Code: uint32(i)}
	}
	req := wire.KeyBatch{Hdr: wire.ReqHeader{ID: 1}, Keys: keys}
	resp := wire.Results{ID: 1, Res: res}
	iters := max(1, (1<<20)/opsPerFrame)
	var qbuf, pbuf []byte
	start := r.clk.now()
	for i := 0; i < iters; i++ {
		qbuf = wire.AppendKeyBatch(qbuf[:0], req)
		pbuf = wire.AppendResults(pbuf[:0], resp)
	}
	mid := r.clk.now()
	for i := 0; i < iters; i++ {
		q, err := wire.DecodeKeyBatch(qbuf)
		p, err2 := wire.DecodeResults(pbuf)
		if err != nil || err2 != nil || len(q.Keys) != opsPerFrame || len(p.Res) != opsPerFrame || q.Keys[opsPerFrame-1] != keys[opsPerFrame-1] {
			r.fatalf("wire codec round trip of a %d-key frame failed: %v %v", opsPerFrame, err, err2)
		}
	}
	end := r.clk.now()
	r.spans.add("wire.encode", start, mid, -1, 0)
	r.spans.add("wire.decode", mid, end, -1, 0)
	n := float64(iters * opsPerFrame)
	r.set("wire.encode_ns_per_op", float64(mid-start)/n)
	r.set("wire.decode_ns_per_op", float64(end-mid)/n)
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// hostRecord describes the host the run measured: GOMAXPROCS, the CPU count
// and the LLC size lscpu reports.
func hostRecord() string {
	llc := "unknown"
	if out, err := exec.Command("lscpu").Output(); err == nil {
		for _, line := range strings.Split(string(out), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.HasPrefix(k, "L3 cache") {
				llc = strings.TrimSpace(v)
			}
		}
	}
	return fmt.Sprintf("gomaxprocs=%d nproc=%d llc=%q go=%s", runtime.GOMAXPROCS(0), runtime.NumCPU(), llc, runtime.Version())
}
