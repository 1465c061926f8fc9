package main

import (
	"net"
	"time"

	"repro/client"
	"repro/internal/serve"
	"repro/internal/wire"
)

const (
	// smallDict is point-mix-small's dictionary: 128 Ki keys, 1 MB of
	// index, resident in L2.
	smallDict = 1 << 17
	// netDict is net-point's dictionary: 1 Mi keys, 8 MB, inside the LLC.
	netDict = 1 << 20
	// nominalRate is the open-loop rate latency is reported at.
	nominalRate = 50000
	// p99Limit is the latency limit a ladder step must meet to count as
	// sustained: about 3× the p99 both point workloads show at nominalRate.
	p99Limit = 20 * time.Millisecond
	// pointSetups is how many times the point workloads build their
	// service for setup_s; the last pointPooled of them are measured.
	pointSetups = 15
	pointPooled = 3
	pointWarmup = time.Second
	// smallBuildDiv sizes the kernel sweep's build side on the point
	// workloads (which serve no joins): dictionary/16, as on
	// join-column-large.
	smallBuildDiv = 16
)

// ladder is the fixed sequence of rates (ops/s), about 12% apart, that the
// sustained-rate search climbs; the steps share half of --seconds.
var ladder = []float64{100e3, 112e3, 125e3, 140e3, 157e3, 176e3, 197e3, 221e3, 247e3, 277e3, 310e3, 347e3, 389e3, 436e3, 488e3,
	547e3, 613e3, 686e3, 768e3, 860e3, 963e3, 1079e3, 1208e3, 1353e3, 1516e3, 1698e3, 1901e3, 2129e3, 2385e3}

func (r *runner) pointMixSmall() {
	r.ks = keyspace{n: smallDict}
	values := r.ks.values()
	var svc *serve.Service
	r.runPoint(func() func() {
		var err error
		if svc, err = serve.New(values, serviceOpts()...); err != nil {
			r.fatalf("serve.New: %v", err)
		}
		return func() {
			svc.Close()
			svc = nil
		}
	}, func() (pointTarget, *serve.Service, *client.Remote) { return serveTarget{svc}, svc, nil }, 0.7, 0.2)
	if r.trace {
		r.kernelSweep(values, newBuildSide(r.ks, smallDict/smallBuildDiv, buildMult, r.seed), sweepProbes)
		r.wireCodec(64)
	}
}

func (r *runner) netPoint() {
	r.ks = keyspace{n: netDict}
	values := r.ks.values()
	var svc *serve.Service
	var rem *client.Remote
	opsPerFrame := r.runPoint(func() func() {
		var err error
		if svc, err = serve.New(values, serviceOpts()...); err != nil {
			r.fatalf("serve.New: %v", err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			r.fatalf("listen: %v", err)
		}
		srv := wire.NewServer(svc, wire.Config{})
		served := make(chan struct{})
		go func() {
			srv.Serve(ln)
			close(served)
		}()
		if rem, err = client.Dial(ln.Addr().String(), client.WithConns(2)); err != nil {
			r.fatalf("dial: %v", err)
		}
		return func() {
			rem.Close()
			srv.Close()
			<-served
			svc.Close()
			svc, rem = nil, nil
		}
	}, func() (pointTarget, *serve.Service, *client.Remote) { return remoteTarget{rem}, svc, rem }, 1, 0)
	if r.trace {
		r.kernelSweep(values, newBuildSide(r.ks, netDict/smallBuildDiv, buildMult, r.seed), sweepProbes)
		r.wireCodec(int(opsPerFrame + 0.5))
	}
}

// runPoint sets a point workload up pointSetups times (setup_s) and measures
// it on the last pointPooled services, pooling their windows: each is warmed
// up, then serves a latency window at nominalRate and a saturation window.
// Independently built services keep one service's adaptive-group walk from
// setting the result. The traced run builds once and measures one service.
// current returns the service just built. runPoint returns the client's ops
// per frame over the traced window (0 untraced or in process).
func (r *runner) runPoint(build func() func(), current func() (pointTarget, *serve.Service, *client.Remote), lookupFrac, writeFrac float64) float64 {
	if r.trace {
		var opsPerFrame float64
		r.setups(1, build, func(int) {
			target, svc, rem := current()
			opsPerFrame = r.tracedPoint(target, svc, rem, newPointMix(r.ks, r.seed, 1, lookupFrac, writeFrac))
		})
		return opsPerFrame
	}
	var lookups []float64
	var sat capacityResult
	window := r.seconds / (3 * pointPooled)
	r.setups(pointSetups, build, func(i int) {
		if i < pointSetups-pointPooled {
			return
		}
		target, _, _ := current()
		mix := newPointMix(r.ks, r.seed, uint64(i), lookupFrac, writeFrac)
		r.measured(r.runPhase(target, mix, nominalRate, pointWarmup, phaseOpts{}), "warm-up")
		pr := r.runPhase(target, mix, nominalRate, window, phaseOpts{})
		r.measured(pr, "window")
		if offeredShort(int64(len(pr.recs)), pr.scheduled, offerFrac) {
			r.fatalf("the generator offered %d of %d ops at %d ops/s", len(pr.recs), pr.scheduled, nominalRate)
		}
		lookups = append(lookups, pr.latencies(classLookup)...)
		c := r.runCapacity(target, mix, window)
		r.count(c.issued, c.failed)
		r.logf("saturation: %.1f k ops/s, %d issued, %d failed", float64(c.completed)/c.elapsed/1e3, c.issued, c.failed)
		sat.completed += c.completed
		sat.elapsed += c.elapsed
	})
	r.set("lookup_mean_ms", mean(lookups)/1e6)
	r.set("lookup_p90_ms", percentile(lookups, 90)/1e6)
	r.set("throughput_kops", ratio(float64(sat.completed), sat.elapsed)/1e3)
	return 0
}

// tracedPoint measures the nominal window twice on one service, untraced
// and then traced, for the tracing overhead; reports the per-layer metrics
// of the traced half; and then climbs the rate ladder. It returns the
// client's ops per frame over the traced window (0 in process).
func (r *runner) tracedPoint(target pointTarget, svc *serve.Service, rem *client.Remote, mix *pointMix) float64 {
	r.measured(r.runPhase(target, mix, nominalRate, pointWarmup, phaseOpts{}), "warm-up")
	half := max(r.seconds/4, time.Second)
	r.spans.on = false
	plain := r.runPhase(target, mix, nominalRate, half, phaseOpts{})
	r.measured(plain, "untraced")
	r.spans.on = true
	var a counters
	pr := r.runPhase(target, mix, nominalRate, half, phaseOpts{mark: func() { a = r.snapshot(svc, rem) }})
	b := r.snapshot(svc, rem)
	r.measured(pr, "traced")
	r.set("trace.overhead_frac", percentile(pr.latencies(classLookup), 50)/percentile(plain.latencies(classLookup), 50)-1)

	admit, wait := "serve.admit", "serve.wait"
	if rem != nil {
		admit, wait = "client.submit", "client.wait"
	}
	var ranges float64
	for i := range pr.recs {
		rec := &pr.recs[i]
		r.spans.addOp(admit, wait, rec.seq, rec.due, rec.start, rec.ret, rec.done)
		if rec.op.Kind == serve.OpRange {
			ranges++
		}
	}
	r.set("workload.offered_kops", float64(len(pr.recs))/(float64(pr.wallIssued-pr.start)/1e9)/1e3)
	r.set("workload.gen_late_p99_ms", percentile(pr.lateness(), 99)/1e6)
	lk := pr.latencies(classLookup)
	r.set("op.lookup_p50_ms", percentile(lk, 50)/1e6)
	r.set("op.lookup_p99_ms", percentile(lk, 99)/1e6)
	for _, c := range []struct {
		class    opClass
		p50, p99 string
	}{{classWrite, "op.write_p50_ms", "op.write_p99_ms"}, {classRange, "op.range_p50_ms", "op.range_p99_ms"}} {
		xs := pr.latencies(c.class)
		r.set(c.p50, percentile(xs, 50)/1e6)
		r.set(c.p99, percentile(xs, 99)/1e6)
	}
	r.set("op.join_p50_ms", 0)
	r.set("op.join_p99_ms", 0)
	r.set("op.failed_frac", ratio(float64(pr.failedOps()), float64(len(pr.recs))))
	r.set("serve.range_entries_per_range", ratio(float64(b.serve.RangeEntries-a.serve.RangeEntries), ranges))
	r.layerCounters(a, b, int64(len(pr.recs)))
	if rem != nil {
		r.set("client.submit_us_p50", median(r.spans.durations("client.submit"))/1e3)
		r.set("serve.admit_us_p50", 0)
		r.set("serve.wait_ms_p50", 0)
	} else {
		r.set("client.submit_us_p50", 0)
		r.set("serve.admit_us_p50", median(r.spans.durations("serve.admit"))/1e3)
		r.set("serve.wait_ms_p50", median(r.spans.durations("serve.wait"))/1e6)
	}
	r.set("workload.sustained_kops", r.climb(target, mix)/1e3)
	return ratio(float64(b.client.Ops-a.client.Ops), float64(b.client.FramesOut-a.client.FramesOut))
}

// measured adds a phase to the run's attempted/failed totals and logs it.
// Ops that hung past the deadline are among the failed; their collector
// stays blocked, and later phases run with collectors of their own.
func (r *runner) measured(pr *phaseResult, what string) {
	failed := pr.failedOps()
	r.count(int64(len(pr.recs)), failed)
	lat := pr.latencies(-1)
	r.logf("%s: rate %.0f/s issued %d of %d, failed %d, p50 %.3f ms p99 %.3f ms, aborted %v",
		what, pr.rate, len(pr.recs), pr.scheduled, failed, percentile(lat, 50)/1e6, percentile(lat, 99)/1e6, pr.aborted)
	if pr.timedOut {
		r.logf("%s: ops still open %v after the phase ended count as failed", what, opDeadline)
	}
}

// climb runs the rate ladder and returns the highest rate (ops/s) whose
// step kept up. The ladder stops once a step saturates the target: its
// backlog bound trips or its median latency exceeds the p99 limit.
func (r *runner) climb(target pointTarget, mix *pointMix) float64 {
	sustained := float64(nominalRate)
	step := r.seconds / 2 / time.Duration(len(ladder))
	for _, rate := range ladder {
		pr := r.runPhase(target, mix, rate, step, phaseOpts{abortOnBacklog: true})
		r.measured(pr, "ladder")
		if pr.keptUp(p99Limit) {
			sustained = rate
		}
		if pr.aborted || percentile(pr.latencies(-1), 50) > float64(p99Limit) {
			break
		}
	}
	return sustained
}
