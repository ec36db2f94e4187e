package main

import (
	"bytes"
	"fmt"
	"time"

	"github.com/whisper-sim/whisper/internal/core"
	"github.com/whisper-sim/whisper/internal/pipeline"
	"github.com/whisper-sim/whisper/internal/profiler"
	"github.com/whisper-sim/whisper/internal/server"
	"github.com/whisper-sim/whisper/internal/sim"
	"github.com/whisper-sim/whisper/internal/store"
	"github.com/whisper-sim/whisper/internal/trace"
	"github.com/whisper-sim/whisper/internal/traceio"
)

// The daemon's retrain policy, set explicitly on the benchmark's server
// so the offline replay applies the same one.
const (
	driftThreshold    = 0.50
	minRetrainRecords = 20000
)

// daemonPolicy is the server's retrain rule: the first shard always
// trains; later ones once the window holds minRetrainRecords and has
// drifted past driftThreshold.
func daemonPolicy(_ int, first bool, windowRecords uint64, drift float64) bool {
	return first || (windowRecords >= minRetrainRecords && drift > driftThreshold)
}

// retrainPoint is one training the replay decided on.
type retrainPoint struct {
	// first and last are the shard indexes the training window spans.
	first, last int
	records     uint64
	instrs      uint64
	hard        int
	// train is set when the replay trained this window.
	train *core.TrainResult
}

// replayOut is the daemon path replayed offline over a shard sequence.
type replayOut struct {
	retrains []retrainPoint
	// recs holds every shard's decoded records.
	recs [][]trace.Record
	// lastWindow is the profile the final training consumed.
	lastWindow *profiler.Profile

	decodeBytes int
	decodeTime  time.Duration
	profileTime time.Duration
	shardMS     dist
	mergeMS     dist
	driftMS     dist
	encodeMS    dist
	trainS      []float64
	trained     int
	lengths     int
	formulaEval uint64
	hints       int
}

// replayShards runs the daemon's documented shard pipeline offline —
// traceio.ReadAll → sim.ProfileTrace → Profile.Merge → server.Drift →
// core.Train → store.Encode — over the encoded shards, applying policy
// after each shard. trainAll trains (and encodes) every retrain point;
// otherwise only the last one is trained, which is all the parity check
// needs.
func replayShards(t *tracer, tenant string, shards [][]byte, params core.Params,
	policy func(i int, first bool, windowRecords uint64, drift float64) bool, trainAll bool) (*replayOut, error) {
	out := &replayOut{recs: make([][]trace.Record, len(shards))}
	var window, trained *profiler.Profile
	var windowRecords uint64
	windowStart := 0
	bopt := sim.DefaultBuildOptions()
	bopt.Params = params
	for i, body := range shards {
		var recs []trace.Record
		var err error
		out.decodeTime += t.timed("traceio.ReadAll", func() {
			recs, _, err = traceio.ReadAll(bytes.NewReader(body), traceio.FormatBinary)
		})
		if err != nil {
			return nil, fmt.Errorf("decoding shard %d: %w", i, err)
		}
		out.decodeBytes += len(body)
		out.recs[i] = recs

		bopt.Records = len(recs)
		var prof *profiler.Profile
		d := t.timed("sim.ProfileTrace", func() { prof, err = sim.ProfileTrace(recs, bopt) })
		if err != nil {
			return nil, fmt.Errorf("profiling shard %d: %w", i, err)
		}
		out.profileTime += d
		out.shardMS.add(ms(d))

		if window == nil {
			window = prof
		} else {
			d := t.timed("profiler.Merge", func() { err = window.Merge(prof) })
			if err != nil {
				return nil, fmt.Errorf("merging shard %d: %w", i, err)
			}
			out.mergeMS.add(ms(d))
		}
		windowRecords += uint64(len(recs))

		drift := 1.0
		if trained != nil {
			out.driftMS.add(ms(t.timed("server.Drift", func() { drift = server.Drift(trained, window) })))
		}
		if !policy(i, len(out.retrains) == 0, windowRecords, drift) {
			continue
		}
		rp := retrainPoint{first: windowStart, last: i, records: windowRecords, instrs: window.Instrs, hard: len(window.Hard)}
		if trainAll {
			version := len(out.retrains) + 1
			if rp.train, err = out.train(t, window, params); err != nil {
				return nil, err
			}
			out.encodeMS.add(ms(t.timed("store.Encode", func() {
				_, err = encodeBundle(daemonMeta(tenant, version, windowRecords), rp.train, rp.instrs)
			})))
			if err != nil {
				return nil, err
			}
		}
		out.retrains = append(out.retrains, rp)
		trained, window, windowRecords, windowStart = window, nil, 0, i+1
	}
	if len(out.retrains) == 0 {
		return nil, fmt.Errorf("replay of %d shards never trained", len(shards))
	}
	out.lastWindow = trained
	last := &out.retrains[len(out.retrains)-1]
	if last.train == nil {
		var err error
		if last.train, err = out.train(t, trained, params); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// train runs core.Train on a window and accumulates the training
// counters. The duration is zeroed as the daemon does, so bundle bytes
// depend only on the window and the parameters.
func (o *replayOut) train(t *tracer, window *profiler.Profile, params core.Params) (*core.TrainResult, error) {
	var tr *core.TrainResult
	var err error
	d := t.timed("core.Train", func() { tr, err = core.Train(window, params) })
	if err != nil {
		return nil, fmt.Errorf("training replay window: %w", err)
	}
	o.trainS = append(o.trainS, d.Seconds())
	o.trained += tr.Trained
	o.lengths += tr.Trained * len(tr.Lengths)
	o.formulaEval += tr.FormulaEvals
	o.hints += len(tr.Hints)
	tr.Duration = 0
	return tr, nil
}

// windowRecords concatenates the decoded records of shards first..last.
func (o *replayOut) windowRecords(rp retrainPoint) []trace.Record {
	var recs []trace.Record
	for i := rp.first; i <= rp.last; i++ {
		recs = append(recs, o.recs[i]...)
	}
	return recs
}

// daemonMeta is the metadata the daemon stamps on a tenant's bundle
// version.
func daemonMeta(tenant string, version int, records uint64) store.Meta {
	return store.Meta{
		App:     "tenant:" + tenant,
		Records: int(records),
		Key:     fmt.Sprintf("serve:%s:v%d", tenant, version),
	}
}

// encodeBundle encodes a hint bundle with the training duration zeroed.
func encodeBundle(meta store.Meta, tr *core.TrainResult, windowInstrs uint64) ([]byte, error) {
	c := *tr
	c.Duration = 0
	data, err := store.Encode(&store.Artifact{Meta: meta, Train: &c, WindowInstrs: windowInstrs})
	if err != nil {
		return nil, fmt.Errorf("encoding bundle: %w", err)
	}
	return data, nil
}

// traceEval is a bundle measured on a record window with the
// imported-trace flow: link the hints into the window's CFG, then run
// the baseline and the Whisper binary over the window.
type traceEval struct {
	base, whisper       pipeline.Result
	hintPredictions     uint64
	placed, hints       int
	assemble, baseT, wT time.Duration
}

func evalOnTrace(t *tracer, recs []trace.Record, tr *core.TrainResult, windowInstrs uint64) traceEval {
	bopt := sim.DefaultBuildOptions()
	bopt.Params = tr.Params
	bopt.Records = len(recs)
	popt := pipeline.Options{
		Config:        pipeline.DefaultConfig(),
		WarmupRecords: uint64(float64(len(recs)) * 0.3),
	}
	var ev traceEval
	var wb *sim.WhisperBuild
	ev.assemble = t.timed("sim.AssembleTraceHints", func() {
		wb = sim.AssembleTraceHints(recs, tr, windowInstrs, bopt)
	})
	ev.placed, ev.hints = wb.Binary.Placed, len(tr.Hints)
	ev.baseT = t.timed("sim.RunTrace", func() { ev.base = sim.RunTrace(recs, sim.Tage64KB(), popt) })
	ev.wT = t.timed("RunWhisperTrace", func() {
		var rt *core.Runtime
		ev.whisper, rt = wb.RunWhisperTrace(recs, sim.Tage64KB, popt)
		ev.hintPredictions = rt.HintPredictions
	})
	return ev
}

// quality pools misprediction and cycle counts over evaluations.
type quality struct {
	baseMisp, whisperMisp     uint64
	baseInstrs, whisperInstrs uint64
	baseCycles, whisperCycles uint64
	n                         int
}

func (q *quality) add(base, whisper pipeline.Result) {
	q.baseMisp += base.CondMisp
	q.whisperMisp += whisper.CondMisp
	q.baseInstrs += base.Instrs
	q.whisperInstrs += whisper.Instrs
	q.baseCycles += base.Cycles
	q.whisperCycles += whisper.Cycles
	q.n++
}

// reductionPct is the pooled share of baseline mispredictions removed.
func (q *quality) reductionPct() float64 {
	return 100 * (1 - float64(q.whisperMisp)/float64(q.baseMisp))
}

// speedupPct is the pooled IPC gain.
func (q *quality) speedupPct() float64 {
	baseIPC := float64(q.baseInstrs) / float64(q.baseCycles)
	wIPC := float64(q.whisperInstrs) / float64(q.whisperCycles)
	return 100 * (wIPC/baseIPC - 1)
}
