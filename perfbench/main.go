// Command perfbench is the repository's benchmark of the index-join service.
// It generates a seeded workload against internal/serve (in process, or
// through client.Remote and an in-process wire.Server over loopback), checks
// every result against an oracle, and prints the workload's metrics. With
// -trace 0 it prints the end-to-end metrics; with -trace 1 it runs the same
// workload again with spans recorded around each layer call and prints the
// per-layer metrics. Every number is taken from outside the program: timings
// of the benchmark's own calls into each layer's public functions, and the
// public counters serve.Service.Stats, client.Remote.Stats and
// runtime/metrics.
//
// Usage:
//
//	perfbench -workload join-column-large|point-mix-small|net-point -seed N -seconds S -trace 0|1
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// Earlier lines start with "#" and record the host and the run. A result
// that disagrees with the oracle exits 1, naming the op and the seed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/serve"
)

// metricDef is one reported metric.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the service sees, reported by every
// untraced run (see README.md for what each means on each workload).
var endToEnd = []metricDef{
	{"throughput_kops", "kops/s"},
	{"lookup_mean_ms", "ms"},
	{"lookup_p90_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of single layers, reported by every traced run.
// A layer a workload does not use reports 0.
var perLayer = []metricDef{
	{"workload.offered_kops", "kops/s"},
	{"workload.gen_late_p99_ms", "ms"},
	{"workload.sustained_kops", "kops/s"},
	{"op.lookup_p50_ms", "ms"},
	{"op.lookup_p99_ms", "ms"},
	{"op.join_p50_ms", "ms"},
	{"op.join_p99_ms", "ms"},
	{"op.write_p50_ms", "ms"},
	{"op.write_p99_ms", "ms"},
	{"op.range_p50_ms", "ms"},
	{"op.range_p99_ms", "ms"},
	{"op.failed_frac", "ratio"},
	{"client.submit_us_p50", "us"},
	{"client.ops_per_frame", "ops"},
	{"client.bytes_per_op", "B"},
	{"client.wait_p50_ms", "ms"},
	{"wire.encode_ns_per_op", "ns"},
	{"wire.decode_ns_per_op", "ns"},
	{"serve.admit_us_p50", "us"},
	{"serve.wait_ms_p50", "ms"},
	{"serve.kernel_batch_mean", "items"},
	{"serve.kernel_busy_frac", "ratio"},
	{"serve.kernel_kops_per_shard", "kops/s"},
	{"serve.group_mean", "group"},
	{"serve.write_busy_frac", "ratio"},
	{"serve.rebuilds", "count"},
	{"serve.rebuild_pause_max_us", "us"},
	{"serve.write_stalls", "count"},
	{"serve.range_entries_per_range", "entries"},
	{"serve.dropped", "count"},
	{"native.seq_ns", "ns"},
	{"native.coro_ns.g1", "ns"},
	{"native.coro_ns.g2", "ns"},
	{"native.coro_ns.g4", "ns"},
	{"native.coro_ns.g8", "ns"},
	{"native.coro_ns.g16", "ns"},
	{"native.interleave_speedup", "x"},
	{"nativejoin.seq_ns", "ns"},
	{"nativejoin.coro_ns.g1", "ns"},
	{"nativejoin.coro_ns.g2", "ns"},
	{"nativejoin.coro_ns.g4", "ns"},
	{"nativejoin.coro_ns.g8", "ns"},
	{"nativejoin.coro_ns.g16", "ns"},
	{"nativejoin.hit_ratio", "ratio"},
	{"go.alloc_bytes_per_op", "B"},
	{"go.gc_cpu_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*runner){
	"join-column-large": (*runner).joinColumnLarge,
	"point-mix-small":   (*runner).pointMixSmall,
	"net-point":         (*runner).netPoint,
}

// runner carries one run's settings, clock, oracle and results.
type runner struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	clk      wallClock
	ks       keyspace
	spans    spanLog
	log      *bufio.Writer
	metrics  map[string]float64
	seq      int64 // next op sequence number

	attempted, failed int64
}

func main() {
	workload := flag.String("workload", "", "workload to run: join-column-large, point-mix-small or net-point")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		flag.Usage()
		os.Exit(2)
	}
	r := &runner{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		clk:      wallClock{origin: time.Now()},
		log:      bufio.NewWriter(os.Stdout),
		metrics:  map[string]float64{},
	}
	r.spans.on = r.trace
	r.logf("host %s", hostRecord())
	r.logf("run workload=%s seed=%d seconds=%d trace=%d", r.workload, r.seed, *seconds, *trace)
	run(r)
	r.finish()
}

// logf writes one "#" record line to standard output.
func (r *runner) logf(format string, args ...any) {
	fmt.Fprintf(r.log, "# "+format+"\n", args...)
	r.log.Flush()
}

// fatalf reports a failed run and exits 1 without a result line.
func (r *runner) fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: workload %s seed %d: %s\n", r.workload, r.seed, fmt.Sprintf(format, args...))
	os.Exit(1)
}

// mismatch reports a result that disagrees with the oracle.
func (r *runner) mismatch(rec *opRec, err error) {
	r.fatalf("oracle mismatch on op #%d (%s): %v", rec.seq, rec.op.Kind, err)
}

// set records a metric value (a ratio over no work reads 0).
func (r *runner) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = v
}

// count adds a measured phase's ops to the run's attempted and failed totals.
func (r *runner) count(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

// setups builds the service k times and times each build: setup_s is the
// median. After each build it calls use with the build's index, then tears
// the service down and collects it before the next build, so every build
// starts from the same heap.
func (r *runner) setups(k int, build func() (teardown func()), use func(i int)) {
	times := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		start := time.Now()
		teardown := build()
		times = append(times, time.Since(start).Seconds())
		runtime.GC()
		use(i)
		teardown()
		runtime.GC()
		debug.FreeOSMemory()
	}
	r.logf("setup_s samples %v", times)
	r.set("setup_s", median(times))
}

// finish prints the span summary (traced runs) and the result line.
func (r *runner) finish() {
	defs := endToEnd
	if r.trace {
		defs = perLayer
		r.spans.summary(r.log)
		path := fmt.Sprintf(".bench_build/trace/%s.csv", r.workload)
		if err := r.spans.writeFile(path, 200000); err != nil {
			r.logf("trace file not written: %v", err)
		} else {
			r.logf("trace %d spans, first 200000 written to %s", len(r.spans.spans), path)
		}
	} else {
		r.set("peak_rss_mb", peakRSSMB())
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]metric{}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			r.fatalf("metric %s was not measured", d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{true, r.attempted, r.failed, out})
	if err != nil {
		r.fatalf("encoding the result: %v", err)
	}
	r.log.Write(line)
	r.log.WriteByte('\n')
	r.log.Flush()
}

// shards is the partition count of every workload.
const shards = 2

// serviceOpts are the options every workload's service shares: the
// shipped defaults with 2 shards.
func serviceOpts(extra ...serve.Option) []serve.Option {
	return append([]serve.Option{serve.WithConfig(serve.DefaultConfig()), serve.WithShards(shards)}, extra...)
}
