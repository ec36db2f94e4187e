package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"time"

	whisper "github.com/whisper-sim/whisper"
	"github.com/whisper-sim/whisper/internal/core"
	"github.com/whisper-sim/whisper/internal/pipeline"
	"github.com/whisper-sim/whisper/internal/profiler"
	"github.com/whisper-sim/whisper/internal/server"
	"github.com/whisper-sim/whisper/internal/sim"
	"github.com/whisper-sim/whisper/internal/store"
	"github.com/whisper-sim/whisper/internal/trace"
	"github.com/whisper-sim/whisper/internal/traceio"
	"github.com/whisper-sim/whisper/internal/workload"
)

// pair is one one-shot flow: profile and train on input train, evaluate
// on the held-out input test.
type pair struct{ train, test int }

// pairSchedule lists the flows of a run. Each block of `inputs` flows
// trains once on every input and evaluates at a fixed input distance
// d (test = train + d), so every block covers every input on both
// sides; the seed rotates which distances and which starting input a
// run uses. Seed 0 starts with the whisper CLI's default pair 0 -> 1.
func pairSchedule(seed int64, inputs, blocks int) []pair {
	dists := inputs - 1
	s := uint64(seed)
	var out []pair
	for b := 0; b < blocks; b++ {
		d := 1 + int((s+uint64(b))%uint64(dists))
		for k := 0; k < inputs; k++ {
			tr := int((s/uint64(dists) + uint64(k)) % uint64(inputs))
			out = append(out, pair{tr, (tr + d) % inputs})
		}
	}
	return out
}

// runOneshot is the oneshot-<app> workload: the whisper CLI's default
// flow (Optimize on the training input, Build.Evaluate on the held-out
// input with 0.3 warm-up) repeated over a seeded schedule of input pairs.
// The set-up repetitions are spread between the scheduled flows and
// the applies follow every flow, rather than either running in one
// burst, so a few slow seconds on a shared host do not decide their
// medians.
func runOneshot(c *config, r *report, t *tracer, appName string, flows int) {
	sc := c.scale
	var setups []float64
	setUp := func() *workload.App {
		runtime.GC()
		start := time.Now()
		app := workload.AppByName(appName)
		setups = append(setups, time.Since(start).Seconds())
		return app
	}
	app := setUp()
	if app == nil {
		r.errorf("unknown app %s", appName)
		return
	}
	sched := pairSchedule(c.seed, app.Inputs(), max(1, flows/app.Inputs()))
	sched = sched[:min(flows, len(sched))]

	if t != nil {
		oneshotTraced(c, r, t, app, sched[0])
		return
	}

	var q quality
	var flowS, allocMB []float64
	var read dist
	var first *whisper.Build
	var firstEv *whisper.Evaluation
	// share is flow k's part of total repetitions spread over the
	// scheduled flows, so the flows take exactly total between them.
	share := func(total, k int) int { return (k+1)*total/len(sched) - k*total/len(sched) }
	// After the scheduled flows, further flows run while one is expected
	// to end by the deadline.
	deadline := time.Now().Add(time.Duration(c.seconds * float64(time.Second)))
	for k := 0; k < len(sched) || time.Until(deadline).Seconds() >= median(flowS); k++ {
		p := sched[k%len(sched)]
		runtime.GC()
		a0 := memMB()
		start := time.Now()
		b, err := whisper.Optimize(app, whisper.WithTrainInput(p.train), whisper.WithRecords(sc.records))
		if err != nil {
			r.errorf("Optimize %s input %d: %v", appName, p.train, err)
			return
		}
		ev := b.Evaluate(p.test, 0)
		flowS = append(flowS, time.Since(start).Seconds())
		allocMB = append(allocMB, memMB()-a0)
		r.ops(1, 0)
		if k == 0 {
			first, firstEv = b, ev
		}
		if err := applyProbe(r, &read, app, p, sc.records, b, sc.appliesPerFlow); err != nil {
			r.errorf("apply: %v", err)
			return
		}
		if k >= len(sched) {
			continue
		}
		q.add(ev.Baseline, ev.Whisper)
		for i := 0; i < share(sc.setupReps-1, k); i++ {
			setUp()
		}
	}
	r.set("setup_s", median(setups), fmt.Sprintf("workload build, median of %d", len(setups)))
	r.set("result_s", median(flowS), fmt.Sprintf("Optimize+Evaluate wall, median of %d flows", len(flowS)))
	r.set("alloc_mb", median(allocMB), fmt.Sprintf("allocated per flow, median of %d", len(allocMB)))
	note := fmt.Sprintf("pooled over %d flows, first %d->%d", q.n, sched[0].train, sched[0].test)
	r.set("misp_reduction_pct", q.reductionPct(), note)
	r.set("ipc_speedup_pct", q.speedupPct(), note)
	setLatency(r, "read", read, "whisper apply: decode the hint artifact and link it into the binary")

	st, err := stagedFlow(nil, app, sched[0], sc.records)
	if err != nil {
		r.errorf("staged flow: %v", err)
		return
	}
	checkStaged(r, app, sched[0], sc.records, st, first, firstEv)
}

// applyProbe times `whisper apply`, the read side of the one-shot flow,
// n times on a flow's build: decode its hint artifact and link the hints
// into the binary (sim.AssembleHints). Each apply must place the hints
// the flow placed.
func applyProbe(r *report, lat *dist, app *workload.App, p pair, records int, b *whisper.Build, n int) error {
	data, err := hintArtifact(app, p.train, records, b.Train, b.Profile.Instrs)
	if err != nil {
		return err
	}
	bopt := sim.DefaultBuildOptions()
	bopt.TrainInput = p.train
	bopt.Records = records
	// Start from a collected heap, as each flow does, so the flow's
	// garbage does not decide when the applies pay for a collection.
	runtime.GC()
	for i := 0; i < n; i++ {
		start := time.Now()
		a, err := store.Decode(data)
		if err != nil {
			return err
		}
		wb := sim.AssembleHints(app, a.Train, a.WindowInstrs, bopt)
		lat.addDur(time.Since(start), time.Millisecond)
		r.check(wb.Binary.Placed == b.Binary.Placed, "apply placed %d hints, the flow %d", wb.Binary.Placed, b.Binary.Placed)
	}
	return nil
}

// staged is the one-shot flow run stage by stage.
type staged struct {
	prof          *profiler.Profile
	train         *core.TrainResult
	build         *sim.WhisperBuild
	base, whisper pipeline.Result
	rt            *core.Runtime
	profileT      time.Duration
	trainT        time.Duration
	assembleT     time.Duration
	baseT, wT     time.Duration
}

// stagedFlow runs the calls Optimize and Evaluate fuse, one span each:
// sim.ProfileApp, core.Train, sim.AssembleWhisper, sim.RunApp and
// RunWhisperWarm.
func stagedFlow(t *tracer, app *workload.App, p pair, records int) (*staged, error) {
	bopt := sim.DefaultBuildOptions()
	bopt.TrainInput = p.train
	bopt.Records = records
	popt := pipeline.Options{
		Config:        pipeline.DefaultConfig(),
		WarmupRecords: uint64(float64(records) * 0.3),
	}
	st := &staged{}
	var err error
	st.profileT = t.timed("sim.ProfileApp", func() { st.prof, err = sim.ProfileApp(app, bopt) })
	if err != nil {
		return nil, err
	}
	st.trainT = t.timed("core.Train", func() { st.train, err = core.Train(st.prof, bopt.Params) })
	if err != nil {
		return nil, err
	}
	st.assembleT = t.timed("sim.AssembleWhisper", func() { st.build = sim.AssembleWhisper(app, st.prof, st.train, bopt) })
	st.baseT = t.timed("sim.RunApp", func() { st.base = sim.RunApp(app, p.test, records, sim.Tage64KB(), popt) })
	st.wT = t.timed("RunWhisperWarm", func() {
		st.whisper, st.rt = st.build.RunWhisperWarm(app, p.test, records, sim.Tage64KB, popt)
	})
	return st, nil
}

// checkStaged checks that the staged and fused flows agree: identical
// hint bytes and identical simulation results.
func checkStaged(r *report, app *workload.App, p pair, records int, st *staged, b *whisper.Build, ev *whisper.Evaluation) {
	fused, err1 := hintArtifact(app, p.train, records, b.Train, b.Profile.Instrs)
	stagedBytes, err2 := hintArtifact(app, p.train, records, st.train, st.prof.Instrs)
	r.check(err1 == nil && err2 == nil && bytes.Equal(fused, stagedBytes),
		"staged and fused flows trained different hint bytes")
	r.check(reflect.DeepEqual(st.base, ev.Baseline), "staged and fused baseline results differ")
	r.check(reflect.DeepEqual(st.whisper, ev.Whisper) && st.rt.HintPredictions == ev.HintPredictions,
		"staged and fused Whisper results differ")
}

// hintArtifact encodes a build's trained hints the way `whisper train`
// persists them, with the training duration zeroed.
func hintArtifact(app *workload.App, input, records int, tr *core.TrainResult, instrs uint64) ([]byte, error) {
	return encodeBundle(store.Meta{App: app.Name(), Input: input, Records: records}, tr, instrs)
}

// decodeProbe decodes the hint artifact open-loop, one decode every
// readEvery for readFor, and returns the generator's lateness: how far
// behind schedule an in-process open-loop generator runs on this host.
func decodeProbe(r *report, data []byte, wantHints int, sc scale) (late dist) {
	n := int(sc.readFor / sc.readEvery)
	samples := openLoop(realClock{}, time.Now().Add(time.Millisecond), sc.readEvery,
		func(i int, _ time.Time) bool { return i >= n },
		func(int) error {
			a, err := store.Decode(data)
			if err != nil {
				return err
			}
			if len(a.Train.Hints) != wantHints {
				return fmt.Errorf("decoded %d hints, want %d", len(a.Train.Hints), wantHints)
			}
			return nil
		})
	failed := 0
	for _, s := range samples {
		if s.err != nil {
			failed++
			r.problems = append(r.problems, s.err.Error())
			continue
		}
		late.addDur(s.late, time.Millisecond)
	}
	r.ops(len(samples), failed)
	return late
}

// setLatency reports <prefix>_p50_ms and <prefix>_p99_ms with their
// sample counts; p99 steps down by the tail rule when samples are few.
func setLatency(r *report, prefix string, d dist, what string) {
	r.set(prefix+"_p50_ms", median(d.vals), fmt.Sprintf("%s; n=%d", what, len(d.vals)))
	v, p, err := d.tail(0.99)
	if err != nil {
		r.errorf("%s_p99_ms: %v", prefix, err)
		return
	}
	r.set(prefix+"_p99_ms", v, fmt.Sprintf("p%.4g of n=%d", 100*p, len(d.vals)))
}

// oneshotTraced replays one flow stage by stage inside spans, checks it
// against the fused flow, and measures every layer on this workload's
// data: the engines over the held-out records, and the daemon's shard
// path over the training window cut into shards.
func oneshotTraced(c *config, r *report, t *tracer, app *workload.App, p pair) {
	sc := c.scale
	b, err := whisper.Optimize(app, whisper.WithTrainInput(p.train), whisper.WithRecords(sc.records))
	if err != nil {
		r.errorf("Optimize: %v", err)
		return
	}
	ev := b.Evaluate(p.test, 0)

	root := t.begin("oneshot.staged")
	st, err := stagedFlow(t, app, p, sc.records)
	t.end(root)
	if err != nil {
		r.errorf("staged flow: %v", err)
		return
	}
	checkStaged(r, app, p, sc.records, st, b, ev)
	tr := st.train
	r.set("profiler.collect_s", st.profileT.Seconds(), "sim.ProfileApp")
	r.set("profiler.hard_branches", float64(len(st.prof.Hard)), "")
	r.set("core.train_s", st.trainT.Seconds(), "")
	r.set("core.us_per_branch_length", perBranchLength(st.trainT, tr.Trained*len(tr.Lengths)),
		fmt.Sprintf("%d branches x %d lengths", tr.Trained, len(tr.Lengths)))
	r.set("core.formula_evals", float64(tr.FormulaEvals), "")
	r.set("core.hint_yield", float64(len(tr.Hints))/float64(max(tr.Trained, 1)), fmt.Sprintf("%d hints / %d trained", len(tr.Hints), tr.Trained))
	r.set("cfg.assemble_s", st.assembleT.Seconds(), "")
	r.set("cfg.placed_ratio", float64(st.build.Binary.Placed)/float64(max(len(tr.Hints), 1)), "")
	r.set("pipeline.baseline_s", st.baseT.Seconds(), "")
	r.set("pipeline.whisper_s", st.wT.Seconds(), "")
	r.set("pipeline.mpki_baseline", st.base.MPKI(), "")
	r.set("pipeline.mpki_whisper", st.whisper.MPKI(), "")
	r.set("core.hint_predictions", float64(st.rt.HintPredictions), "")

	var test []trace.Record
	d := t.timed("workload.Stream", func() { test = collect(app.Stream(p.test, sc.records)) })
	r.set("workload.stream_ns_per_record", float64(d.Nanoseconds())/float64(len(test)), "held-out input")
	batched := engineLayer(t, r, test)
	r.check(reflect.DeepEqual(batched, st.base), "engine over collected records differs from sim.RunApp")

	shards, err := encodeShards(collect(app.Stream(p.train, sc.records)), sc.shardRecords)
	if err != nil {
		r.errorf("%v", err)
		return
	}
	// One retrain over the whole window: the daemon path's costs on the
	// same records the one-shot flow profiled.
	atEnd := func(i int, _ bool, _ uint64, _ float64) bool { return i == len(shards)-1 }
	o, err := replayShards(t, "oneshot", shards, core.DefaultParams(), atEnd, true)
	if err != nil {
		r.errorf("shard replay: %v", err)
		return
	}
	o.driftMS.add(ms(t.timed("server.Drift", func() { server.Drift(st.prof, o.lastWindow) })))
	replayLayers(r, o)

	dir, err := scratchDir(c, "oneshot-server")
	if err != nil {
		r.errorf("%v", err)
		return
	}
	defer os.RemoveAll(dir)
	srv, err := server.NewServer(server.Config{Dir: dir, DriftThreshold: driftThreshold, MinRetrainRecords: minRetrainRecords})
	if err != nil {
		r.errorf("%v", err)
		return
	}
	h := srv.Handler()
	body, err := postShard(h, "oneshot", shards[0])
	var resp server.ShardResponse
	if err == nil {
		err = json.Unmarshal([]byte(body), &resp)
	}
	if err != nil {
		r.errorf("seeding the handler: %v", err)
		return
	}
	getLayer(t, r, h, "oneshot", resp.ETag, sc.layerGets)

	data, err := hintArtifact(app, p.train, sc.records, tr, st.prof.Instrs)
	if err != nil {
		r.errorf("%v", err)
		return
	}
	setLate(r, decodeProbe(r, data, len(tr.Hints), sc))
	traceOverhead(t, r, "oneshot.staged")
}

func perBranchLength(d time.Duration, n int) float64 {
	return float64(d.Microseconds()) / float64(max(n, 1))
}

// setLate reports the generator's lateness tail.
func setLate(r *report, late dist) {
	v, p, err := late.tail(0.99)
	if err != nil {
		r.errorf("loadgen.late_p99_ms: %v", err)
		return
	}
	r.set("loadgen.late_p99_ms", v, fmt.Sprintf("p%.4g of n=%d", 100*p, len(late.vals)))
}

// collect drains a trace stream into memory.
func collect(s trace.Stream) []trace.Record {
	var recs []trace.Record
	var rec trace.Record
	for s.Next(&rec) {
		recs = append(recs, rec)
	}
	return recs
}

// encodeShards cuts records into shards of n records and encodes each
// as WSPT binary, the daemon's wire format.
func encodeShards(recs []trace.Record, n int) ([][]byte, error) {
	var shards [][]byte
	for lo := 0; lo < len(recs); lo += n {
		var buf bytes.Buffer
		if err := traceio.WriteAll(&buf, traceio.FormatBinary, recs[lo:min(lo+n, len(recs))]); err != nil {
			return nil, fmt.Errorf("encoding shard: %w", err)
		}
		shards = append(shards, buf.Bytes())
	}
	return shards, nil
}
