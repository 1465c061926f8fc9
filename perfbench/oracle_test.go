package main

import (
	"context"
	"math/rand/v2"
	"testing"

	"repro/internal/serve"
)

func TestOracleRejectsCorruptLookup(t *testing.T) {
	ks := keyspace{n: 1 << 10}
	if err := ks.checkLookup(84, serve.Result{Code: 42, Found: true}); err != nil {
		t.Fatalf("correct present lookup rejected: %v", err)
	}
	if err := ks.checkLookup(85, serve.Result{Code: serve.NotFound}); err != nil {
		t.Fatalf("correct absent lookup rejected: %v", err)
	}
	for _, bad := range []struct {
		key uint64
		res serve.Result
	}{
		{84, serve.Result{Code: 43, Found: true}},                // wrong code
		{84, serve.Result{Code: 42}},                             // not found
		{84, serve.Result{Code: 42, Found: true, Dropped: true}}, // dropped
		{85, serve.Result{Code: 42, Found: true}},                // absent key found
		{2 << 10, serve.Result{Code: 1 << 10, Found: true}},      // past the dictionary
	} {
		if ks.checkLookup(bad.key, bad.res) == nil {
			t.Errorf("lookup of %d answered %+v was accepted", bad.key, bad.res)
		}
	}
}

func TestOracleRejectsCorruptWriteAck(t *testing.T) {
	ins := serve.Op{Kind: serve.OpInsert, Key: 10, Val: 5}
	del := serve.Op{Kind: serve.OpDelete, Key: 2049}
	if err := checkWrite(ins, serve.Result{Code: 5, Found: true}); err != nil {
		t.Fatalf("correct insert ack rejected: %v", err)
	}
	if err := checkWrite(del, serve.Result{Code: serve.NotFound}); err != nil {
		t.Fatalf("correct delete ack rejected: %v", err)
	}
	for _, bad := range []struct {
		op  serve.Op
		res serve.Result
	}{
		{ins, serve.Result{Code: 6, Found: true}},
		{ins, serve.Result{Code: 5}},
		{del, serve.Result{Code: 0, Found: true}},
		{del, serve.Result{Code: serve.NotFound, Found: true}},
	} {
		if checkWrite(bad.op, bad.res) == nil {
			t.Errorf("%s ack %+v was accepted", bad.op.Kind, bad.res)
		}
	}
}

func TestOracleRejectsCorruptRange(t *testing.T) {
	ks := keyspace{n: 100}
	good := func(lo, hi uint64) []serve.RangeEntry {
		var es []serve.RangeEntry
		for k := lo; k <= hi && k < 2*ks.n; k++ {
			if k%2 == 0 {
				es = append(es, serve.RangeEntry{Key: k, Code: uint32(k / 2)})
			}
		}
		return es
	}
	for _, b := range [][2]uint64{{10, 20}, {9, 21}, {11, 11}, {12, 12}, {190, 250}, {0, 0}} {
		if err := ks.checkRange(b[0], b[1], good(b[0], b[1])); err != nil {
			t.Fatalf("correct range [%d, %d] rejected: %v", b[0], b[1], err)
		}
	}
	base := good(10, 20) // keys 10..20: six entries
	corrupt := map[string][]serve.RangeEntry{
		"missing entry": append(append([]serve.RangeEntry{}, base[:2]...), base[3:]...),
		"extra entry":   append(append([]serve.RangeEntry{}, base...), serve.RangeEntry{Key: 22, Code: 11}),
		"out of order":  {base[1], base[0], base[2], base[3], base[4], base[5]},
		"wrong code":    {base[0], base[1], {Key: 14, Code: 8}, base[3], base[4], base[5]},
		"below lo":      {{Key: 8, Code: 4}, base[0], base[1], base[2], base[3], base[4]},
		"odd key":       {base[0], {Key: 13, Code: 6}, base[2], base[3], base[4], base[5]},
	}
	for name, es := range corrupt {
		if ks.checkRange(10, 20, es) == nil {
			t.Errorf("range with %s was accepted", name)
		}
	}
}

func TestBuildSideOracle(t *testing.T) {
	ks := keyspace{n: 1 << 12}
	bs := newBuildSide(ks, 1<<8, 2, 7)
	for x := uint64(0); x < ks.n; x++ {
		if got := bs.unperm(bs.perm(x)); got != x {
			t.Fatalf("unperm(perm(%d)) = %d", x, got)
		}
	}
	// Recount the build relation by brute force.
	type agg struct {
		hits uint32
		sum  uint64
	}
	want := map[uint64]agg{}
	tuples := bs.tuples()
	if len(tuples) != 1<<8 {
		t.Fatalf("%d build tuples, want %d", len(tuples), 1<<8)
	}
	for _, tu := range tuples {
		a := want[tu.Key]
		a.hits++
		a.sum += uint64(tu.Payload)
		want[tu.Key] = a
	}
	for key := uint64(0); key < 2*ks.n+4; key++ {
		got := bs.join(key)
		w := want[key]
		if got.Hits != w.hits || got.Agg != w.sum {
			t.Fatalf("join(%d) = %+v, brute force hits %d agg %d", key, got, w.hits, w.sum)
		}
		if wantCode := ks.lookup(key).Code; got.Code != wantCode {
			t.Fatalf("join(%d) code %d, want %d", key, got.Code, wantCode)
		}
	}
	hit := bs.hitKey(3)
	res := bs.join(hit)
	if err := bs.checkJoin(hit, res); err != nil {
		t.Fatalf("correct join rejected: %v", err)
	}
	for name, bad := range map[string]serve.JoinResult{
		"hits": {Code: res.Code, Hits: res.Hits + 1, Agg: res.Agg},
		"agg":  {Code: res.Code, Hits: res.Hits, Agg: res.Agg ^ 1},
		"code": {Code: res.Code + 1, Hits: res.Hits, Agg: res.Agg},
		"miss": {Code: res.Code},
		"drop": {Code: res.Code, Hits: res.Hits, Agg: res.Agg, Dropped: true},
	} {
		if bs.checkJoin(hit, bad) == nil {
			t.Errorf("join result with corrupt %s was accepted", name)
		}
	}
}

// TestOracleAgreesWithService runs a small seeded slice of every workload's
// op kinds through a real service and checks each answer with the oracle,
// so the oracle encodes the service's documented behaviour rather than a guess at it.
func TestOracleAgreesWithService(t *testing.T) {
	ks := keyspace{n: 1 << 12}
	bs := newBuildSide(ks, ks.n/16, buildMult, 3)
	svc, err := serve.New(ks.values(), serviceOpts(serve.WithBuild(bs.tuples()))...)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	r := &runner{ks: ks}
	rng := rand.New(rand.NewPCG(3, 4))

	keys := make([]uint64, 512)
	for i := range keys {
		keys[i] = r.joinKey(rng, bs)
	}
	jf := svc.JoinBatch(ctx, keys)
	jres := jf.WaitJoin()
	hits := 0
	for i, k := range jf.Keys() {
		if err := bs.checkJoin(k, jres[i]); err != nil {
			t.Fatal(err)
		}
		if jres[i].Hits > 0 {
			hits++
		}
	}
	if hits < len(keys)*8/10 {
		t.Errorf("%d of %d join probes hit; the probe draw should mostly hit", hits, len(keys))
	}

	mix := newPointMix(ks, 3, 1, 0.5, 0.3)
	target := serveTarget{svc}
	for i := 0; i < 4000; i++ {
		rec := &opRec{op: mix.next(), seq: int64(i)}
		rec.pf, rec.rf = target.submit(rec.op)
		var err error
		if rec.rf != nil {
			<-rec.rf.Done()
			err = ks.checkRange(rec.op.Key, rec.op.Hi, rec.rf.Collect(0))
		} else if rec.op.Kind == serve.OpLookup {
			err = ks.checkLookup(rec.op.Key, rec.pf.Wait())
		} else {
			err = checkWrite(rec.op, rec.pf.Wait())
		}
		if err != nil {
			t.Fatalf("op %d (%s): %v", i, rec.op.Kind, err)
		}
	}
	if mix.nextChurn == 0 || len(mix.live) == int(mix.nextChurn) {
		t.Errorf("the write stream inserted %d churn keys and deleted %d; want both", mix.nextChurn, int(mix.nextChurn)-len(mix.live))
	}
}
