package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"time"

	"github.com/whisper-sim/whisper/internal/bpu"
	"github.com/whisper-sim/whisper/internal/pipeline"
	"github.com/whisper-sim/whisper/internal/sim"
	"github.com/whisper-sim/whisper/internal/trace"
)

// engineLayer times the prediction engines over pre-collected records:
// TAGE-SC-L through the batched engine (pipeline.ns_per_record), the
// same through the scalar reference engine (checked equal), and a
// bimodal predictor (pipeline.phase_b_ns_per_record: a near-free
// Phase A, so the figure is dominated by the frontend and cache
// accounting). It returns the batched TAGE result.
func engineLayer(t *tracer, r *report, recs []trace.Record) pipeline.Result {
	popt := pipeline.Options{
		Config:        pipeline.DefaultConfig(),
		WarmupRecords: uint64(float64(len(recs)) * 0.3),
	}
	n := float64(len(recs))
	var batched, scalar pipeline.Result
	d := t.timed("pipeline.Run/tage", func() {
		batched = pipeline.Run(trace.NewSliceStream(recs), sim.Tage64KB(), popt)
	})
	r.set("pipeline.ns_per_record", float64(d.Nanoseconds())/n, fmt.Sprintf("%d records", len(recs)))
	t.timed("pipeline.RunScalar/tage", func() {
		scalar = pipeline.RunScalar(trace.NewSliceStream(recs), sim.Tage64KB(), popt)
	})
	r.check(reflect.DeepEqual(batched, scalar), "batched and scalar engines differ on the baseline evaluation")
	d = t.timed("pipeline.Run/bimodal", func() {
		pipeline.Run(trace.NewSliceStream(recs), bpu.NewBimodal(14), popt)
	})
	r.set("pipeline.phase_b_ns_per_record", float64(d.Nanoseconds())/n, "")
	return batched
}

// getLayer times the daemon's bundle handler directly through a
// recorder, with no network: n conditional GETs that match (304) and
// n unconditional ones (200).
func getLayer(t *tracer, r *report, h http.Handler, tenant, etag string, n int) {
	url := "/v1/tenants/" + tenant + "/bundle"
	var d304, d200 dist
	id := t.begin("server.Handler/GET")
	for i := 0; i < 2*n; i++ {
		req := httptest.NewRequest(http.MethodGet, url, nil)
		want := http.StatusOK
		if i%2 == 0 {
			req.Header.Set("If-None-Match", `"`+etag+`"`)
			want = http.StatusNotModified
		}
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, req)
		el := time.Since(start)
		if rec.Code != want {
			r.errorf("handler GET returned %d, want %d", rec.Code, want)
			break
		}
		if want == http.StatusOK {
			d200.addDur(el, time.Microsecond)
		} else {
			d304.addDur(el, time.Microsecond)
		}
	}
	t.end(id)
	r.ops(2*n, 0)
	r.set("server.get304_us", median(d304.vals), fmt.Sprintf("median of %d", len(d304.vals)))
	r.set("server.get200_us", median(d200.vals), fmt.Sprintf("median of %d", len(d200.vals)))
}

// postShard sends one encoded shard through the handler and returns
// the response body.
func postShard(h http.Handler, tenant string, body []byte) (string, error) {
	req := httptest.NewRequest(http.MethodPost, "/v1/tenants/"+tenant+"/shards?format=binary", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return "", fmt.Errorf("POST shard: %d %s", rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	return rec.Body.String(), nil
}

// replayLayers reports the per-layer metrics of a replayed shard
// sequence.
func replayLayers(r *report, o *replayOut) {
	r.set("traceio.decode_mb_s", float64(o.decodeBytes)/(1<<20)/o.decodeTime.Seconds(),
		fmt.Sprintf("%d shards, %d bytes", len(o.recs), o.decodeBytes))
	r.set("profiler.shard_ms", median(o.shardMS.vals), fmt.Sprintf("median of %d", len(o.shardMS.vals)))
	r.set("profiler.merge_ms", median(o.mergeMS.vals), fmt.Sprintf("median of %d", len(o.mergeMS.vals)))
	r.set("server.drift_ms", median(o.driftMS.vals), fmt.Sprintf("median of %d", len(o.driftMS.vals)))
	r.set("store.encode_ms", median(o.encodeMS.vals), fmt.Sprintf("median of %d", len(o.encodeMS.vals)))
	r.set("core.retrain_s", median(o.trainS), fmt.Sprintf("median of %d", len(o.trainS)))
	r.set("core.retrains", float64(len(o.retrains)), "")
}

// spanCost measures what recording one span costs, for the tracing
// overhead estimate.
func spanCost() time.Duration {
	const n = 20000
	t := newTracer()
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("x"))
	}
	return time.Since(start) / n
}

// traceOverhead reports the recorded spans' cost as a share of the
// traced wall time, and how the self times of the spans under root
// divide that root's time.
func traceOverhead(t *tracer, r *report, root string) {
	wall := t.rootWall()
	cost := spanCost() * time.Duration(len(t.spans))
	r.set("trace_overhead_pct", 100*float64(cost)/float64(wall),
		fmt.Sprintf("%d spans over %.3fs traced", len(t.spans), wall.Seconds()))
	covered, top, share := t.coverage(root)
	r.notes["trace_self_time"] = fmt.Sprintf("self times under %s cover %.1f%% of its wall time; largest %s at %.1f%%",
		root, 100*covered, top, 100*share)
}
