package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/whisper-sim/whisper/internal/core"
	"github.com/whisper-sim/whisper/internal/server"
	"github.com/whisper-sim/whisper/internal/store"
	"github.com/whisper-sim/whisper/internal/workload"
)

const serveTenant = "bench"

// servePhases are the applications the serve-drift tenant alternates
// between: mysql has many hard branches (slow retrains), kafka few.
var servePhases = []string{"mysql", "kafka"}

// shardSet is the pre-encoded shard sequence of a serve-drift run.
type shardSet struct {
	// bodies is the sequence sent; its first cycle shards make up one
	// cycle and the rest repeat it.
	bodies [][]byte
	cycle  int
	// streamNS is the time App.Stream took to generate the records,
	// per record.
	streamNS float64
}

// makeShards generates the tenant's shard sequence: phases of
// phaseShards consecutive shards cut from one input of one application,
// alternating mysql and kafka, in cycles in which every input of both
// applications has one phase. The seed rotates the order the inputs
// come in. One cycle is generated and repeated until the sequence holds
// n shards, and it always holds at least one whole cycle.
func makeShards(seed int64, n int, sc scale) (*shardSet, error) {
	set := &shardSet{}
	var streamTime time.Duration
	records := 0
	inputs := workload.AppByName(servePhases[0]).Inputs()
	for ph := 0; ph < len(servePhases)*inputs; ph++ {
		app := workload.AppByName(servePhases[ph%len(servePhases)])
		input := int((uint64(seed) + uint64(ph/len(servePhases))) % uint64(app.Inputs()))
		start := time.Now()
		recs := collect(app.Stream(input, sc.phaseShards*sc.shardRecords))
		streamTime += time.Since(start)
		records += len(recs)
		bodies, err := encodeShards(recs, sc.shardRecords)
		if err != nil {
			return nil, err
		}
		set.bodies = append(set.bodies, bodies...)
	}
	set.streamNS = float64(streamTime.Nanoseconds()) / float64(records)
	set.cycle = len(set.bodies)
	for i := set.cycle; i < n; i++ {
		set.bodies = append(set.bodies, set.bodies[i%set.cycle])
	}
	return set, nil
}

// liveServer is the daemon behind a loopback listener in this process.
type liveServer struct {
	srv  *server.Server
	dir  string
	url  string
	done chan error
}

func startServer(c *config) (*liveServer, error) {
	dir, err := scratchDir(c, "serve")
	if err != nil {
		return nil, err
	}
	srv, err := server.NewServer(server.Config{
		Dir:               dir,
		DriftThreshold:    driftThreshold,
		MinRetrainRecords: minRetrainRecords,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ls := &liveServer{srv: srv, dir: dir, done: make(chan error, 1)}
	addr := make(chan net.Addr, 1)
	go func() {
		ls.done <- srv.ListenAndServe("127.0.0.1:0", func(a net.Addr) { addr <- a })
	}()
	select {
	case a := <-addr:
		ls.url = "http://" + a.String()
		return ls, nil
	case err := <-ls.done:
		os.RemoveAll(dir)
		return nil, fmt.Errorf("starting server: %v", err)
	}
}

// stop drains the server, waits for it to exit and removes its files.
func (ls *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := ls.srv.Shutdown(ctx)
	if serveErr := <-ls.done; err == nil {
		err = serveErr
	}
	os.RemoveAll(ls.dir)
	return err
}

// oneConnClient is a client that keeps a single connection, so its
// requests are sent one after another like a single agent's.
func oneConnClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   120 * time.Second,
	}
}

// poll is what one bundle GET observed.
type poll struct {
	status int
	etag   string
}

// getBundle fetches the tenant's bundle, conditionally when etag is
// set. A 200 body must decode and hash to its ETag.
func getBundle(client *http.Client, base, etag string) (poll, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, base+"/v1/tenants/"+serveTenant+"/bundle", nil)
	if err != nil {
		return poll{}, nil, err
	}
	if etag != "" {
		req.Header.Set("If-None-Match", `"`+etag+`"`)
	}
	resp, err := client.Do(req)
	if err != nil {
		return poll{}, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return poll{}, nil, err
	}
	p := poll{status: resp.StatusCode, etag: strings.Trim(resp.Header.Get("ETag"), `"`)}
	switch resp.StatusCode {
	case http.StatusNotModified:
		return p, nil, nil
	case http.StatusOK:
		sum := sha256.Sum256(body)
		if got := hex.EncodeToString(sum[:]); got != p.etag {
			return p, nil, fmt.Errorf("bundle body hashes to %.12s, ETag says %.12s", got, p.etag)
		}
		if _, err := store.Decode(body); err != nil {
			return p, nil, fmt.Errorf("bundle does not decode: %w", err)
		}
		return p, body, nil
	default:
		return p, nil, fmt.Errorf("GET bundle: %s", resp.Status)
	}
}

// postShardHTTP uploads one shard and decodes the daemon's response.
func postShardHTTP(client *http.Client, base string, body []byte) (server.ShardResponse, error) {
	var sr server.ShardResponse
	resp, err := client.Post(base+"/v1/tenants/"+serveTenant+"/shards?format=binary",
		"application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return sr, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return sr, err
	}
	if resp.StatusCode != http.StatusOK {
		return sr, fmt.Errorf("POST shard: %s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	return sr, json.Unmarshal(data, &sr)
}

// liveRun is what the live phase observed.
type liveRun struct {
	writes    []sample
	responses []server.ShardResponse
	reads     []sample
	polls     []poll
	// bodies are the bundle versions the poller received, by ETag.
	bodies map[string][]byte
}

// runLive drives the daemon for one measuring window: a writer posts
// the shards open-loop, one every shardEvery, on one connection, while
// a poller issues conditional GETs open-loop, one every pollEvery, on a
// second connection. The poller starts once the first shard is
// acknowledged (before that there is no bundle to poll) and stops when
// the writer has sent every shard.
func runLive(ls *liveServer, shards [][]byte, sc scale) *liveRun {
	lr := &liveRun{responses: make([]server.ShardResponse, len(shards)), bodies: make(map[string][]byte)}
	wc, pc := oneConnClient(), oneConnClient()
	defer wc.CloseIdleConnections()
	defer pc.CloseIdleConnections()
	var firstAck sync.Once
	acked := make(chan struct{})
	var writerDone atomic.Bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer firstAck.Do(func() { close(acked) })
		lr.writes = openLoop(realClock{}, time.Now().Add(20*time.Millisecond), sc.shardEvery,
			func(i int, _ time.Time) bool { return i >= len(shards) },
			func(i int) error {
				sr, err := postShardHTTP(wc, ls.url, shards[i])
				lr.responses[i] = sr
				if i == 0 {
					firstAck.Do(func() { close(acked) })
				}
				return err
			})
		writerDone.Store(true)
	}()
	go func() {
		defer wg.Done()
		<-acked
		etag := ""
		lr.reads = openLoop(realClock{}, time.Now(), sc.pollEvery,
			func(int, time.Time) bool { return writerDone.Load() },
			func(int) error {
				p, body, err := getBundle(pc, ls.url, etag)
				lr.polls = append(lr.polls, p)
				if err != nil {
					return err
				}
				if body != nil {
					etag = p.etag
					lr.bodies[p.etag] = body
				}
				return nil
			})
	}()
	wg.Wait()
	return lr
}

// runServe is the serve-drift workload.
func runServe(c *config, r *report, t *tracer) {
	sc := c.scale
	shards := int(c.seconds / sc.shardEvery.Seconds())
	// Set-up runs once before the live phase and is repeated after it,
	// so its median is not decided by a few slow seconds.
	var setups []float64
	setUp := func() (*shardSet, *liveServer, error) {
		runtime.GC()
		start := time.Now()
		set, err := makeShards(c.seed, shards, sc)
		if err != nil {
			return nil, nil, err
		}
		ls, err := startServer(c)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		return set, ls, nil
	}
	set, ls, err := setUp()
	if err != nil {
		r.errorf("set-up: %v", err)
		return
	}
	defer func() {
		if err := ls.stop(); err != nil {
			r.errorf("stopping server: %v", err)
		}
	}()

	runtime.GC()
	a0 := memMB()
	lr := runLive(ls, set.bodies, sc)
	r.set("alloc_mb", memMB()-a0, "allocated by daemon and clients over the live phase")
	for len(setups) < sc.serveSetupReps {
		_, extra, err := setUp()
		if err == nil {
			err = extra.stop()
		}
		if err != nil {
			r.errorf("set-up: %v", err)
			return
		}
	}
	r.set("setup_s", median(setups), fmt.Sprintf("%d shards generated and encoded + server start, median of %d",
		set.cycle, len(setups)))

	var lat, shardLat dist
	failed := 0
	for _, s := range lr.writes {
		if s.err != nil {
			failed++
			r.problems = append(r.problems, s.err.Error())
			continue
		}
		shardLat.addDur(s.latency(), time.Millisecond)
	}
	for _, s := range lr.reads {
		if s.err != nil {
			failed++
			r.problems = append(r.problems, s.err.Error())
			continue
		}
		lat.addDur(s.latency(), time.Millisecond)
	}
	r.ops(len(lr.writes)+len(lr.reads), failed)
	if failed > 0 {
		return
	}
	setLatency(r, "read", lat, "bundle GET from its due time")
	r.notes["shard_latency"] = fmt.Sprintf("shard POST from its due time: p50 %.3f ms, n=%d", median(shardLat.vals), len(shardLat.vals))

	// retrain visibility: from the due time of each shard that retrained
	// until the poller first saw the resulting ETag.
	var visible dist
	var perRetrain []string
	retrained := 0
	for i, resp := range lr.responses {
		if !resp.Retrained {
			continue
		}
		retrained++
		for j, p := range lr.polls {
			if p.etag == resp.ETag && lr.reads[j].done.After(lr.writes[i].due) {
				v := lr.reads[j].done.Sub(lr.writes[i].due)
				visible.addDur(v, time.Second)
				perRetrain = append(perRetrain, fmt.Sprintf("shard %d: %.0fms", i, ms(v)))
				break
			}
		}
	}
	r.notes["retrain_visible"] = strings.Join(perRetrain, ", ")
	// The mean, not the median: every pair of phases retrains three
	// windows of different sizes (the drifted mixed window, one shard of
	// the new app, then the first shard of the next phase), and the
	// median of such a set jumps between kinds from run to run.
	r.set("result_s", mean(visible.vals),
		fmt.Sprintf("retrain-visible latency, mean of %d (of %d retrains)", len(visible.vals), retrained))

	fc := oneConnClient()
	final, finalBody, err := getBundle(fc, ls.url, "")
	fc.CloseIdleConnections()
	if err != nil {
		r.errorf("final GET: %v", err)
		return
	}

	root := t.begin("serve.replay")
	o, err := replayShards(t, serveTenant, set.bodies, core.DefaultParams(), daemonPolicy, t != nil)
	t.end(root)
	if err != nil {
		r.errorf("replay: %v", err)
		return
	}
	r.check(retrained == len(o.retrains), "daemon retrained %d times, the replay %d", retrained, len(o.retrains))
	last := o.retrains[len(o.retrains)-1]
	checkFinalBundle(r, final, finalBody, last)

	if t == nil {
		serveQuality(r, o, lr, set.cycle)
		return
	}
	serveLayers(r, t, o, set, ls, final.etag, lr, sc)
}

// checkFinalBundle checks that the bundle the daemon serves at the end
// is byte-identical to the offline replay's bundle for the same window
// (metadata taken from the served bundle, so only the window and the
// training decide the bytes).
func checkFinalBundle(r *report, final poll, body []byte, last retrainPoint) {
	art, err := store.Decode(body)
	if err != nil {
		r.errorf("final bundle: %v", err)
		return
	}
	r.check(art.Meta.Records == int(last.records), "served bundle covers %d records, the replay's window %d",
		art.Meta.Records, last.records)
	want, err := encodeBundle(art.Meta, last.train, last.instrs)
	r.check(err == nil && bytes.Equal(want, body), "served bundle %.12s differs from the offline replay's", final.etag)
}

// serveQuality evaluates every bundle version the poller received on
// the window it was trained from, and pools the counts. Only windows
// that end in the first cycle count: every run has the same ones,
// while the repeated part of the sequence depends on where the seed
// starts it.
func serveQuality(r *report, o *replayOut, lr *liveRun, cycle int) {
	var q quality
	missed := 0
	for v, rp := range o.retrains {
		if rp.last >= cycle {
			break
		}
		body, ok := lr.bodies[lr.responses[rp.last].ETag]
		if !ok {
			missed++
			continue
		}
		art, err := store.Decode(body)
		if err != nil {
			r.errorf("bundle v%d: %v", v+1, err)
			return
		}
		ev := evalOnTrace(nil, o.windowRecords(rp), art.Train, art.WindowInstrs)
		q.add(ev.base, ev.whisper)
	}
	note := fmt.Sprintf("pooled over the first cycle's %d bundle versions on their training windows (%d not observed)", q.n, missed)
	r.set("misp_reduction_pct", q.reductionPct(), note)
	r.set("ipc_speedup_pct", q.speedupPct(), note)
}

// serveLayers reports the per-layer metrics of a traced serve-drift run.
func serveLayers(r *report, t *tracer, o *replayOut, set *shardSet, ls *liveServer,
	etag string, lr *liveRun, sc scale) {
	replayLayers(r, o)
	r.set("workload.stream_ns_per_record", set.streamNS, "shard generation")
	r.set("profiler.collect_s", o.profileTime.Seconds(), fmt.Sprintf("sim.ProfileTrace over %d shards", len(o.recs)))
	var trainS float64
	for _, s := range o.trainS {
		trainS += s
	}
	r.set("core.train_s", trainS, fmt.Sprintf("%d replay trainings", len(o.trainS)))
	r.set("core.us_per_branch_length", 1e6*trainS/float64(max(o.lengths, 1)), "")
	r.set("core.formula_evals", float64(o.formulaEval), "")
	r.set("core.hint_yield", float64(o.hints)/float64(max(o.trained, 1)), fmt.Sprintf("%d hints / %d trained", o.hints, o.trained))

	// The engine and link layers run on the largest training window
	// (the traced replay trained every window).
	big := o.retrains[0]
	for _, rp := range o.retrains {
		if rp.records > big.records {
			big = rp
		}
	}
	r.set("profiler.hard_branches", float64(big.hard), "largest training window")
	recs := o.windowRecords(big)
	ev := evalOnTrace(t, recs, big.train, big.instrs)
	r.set("cfg.assemble_s", ev.assemble.Seconds(), fmt.Sprintf("largest window, %d records", len(recs)))
	r.set("cfg.placed_ratio", float64(ev.placed)/float64(max(ev.hints, 1)), "")
	r.set("pipeline.baseline_s", ev.baseT.Seconds(), "")
	r.set("pipeline.whisper_s", ev.wT.Seconds(), "")
	r.set("pipeline.mpki_baseline", ev.base.MPKI(), "")
	r.set("pipeline.mpki_whisper", ev.whisper.MPKI(), "")
	r.set("core.hint_predictions", float64(ev.hintPredictions), "")
	batched := engineLayer(t, r, recs)
	r.check(reflect.DeepEqual(batched, ev.base), "engine over the window differs from sim.RunTrace")

	getLayer(t, r, ls.srv.Handler(), serveTenant, etag, sc.layerGets)
	var late dist
	for _, s := range append(append([]sample(nil), lr.writes...), lr.reads...) {
		late.addDur(s.late, time.Millisecond)
	}
	setLate(r, late)
	traceOverhead(t, r, "serve.replay")
}
