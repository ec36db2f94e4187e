package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/whisper-sim/whisper/internal/core"
	"github.com/whisper-sim/whisper/internal/profiler"
	"github.com/whisper-sim/whisper/internal/store"
	"github.com/whisper-sim/whisper/internal/telemetry"
	"github.com/whisper-sim/whisper/internal/traceio"
)

// guardClient fails a request that hangs instead of hanging the test.
// Its timeout is a deadlock guard, not a latency assertion.
func guardClient(ts *httptest.Server) *http.Client {
	c := *ts.Client()
	c.Timeout = 30 * time.Second
	return &c
}

// postResult is a shard POST made off the test goroutine.
type postResult struct {
	status int
	resp   ShardResponse
	err    error
}

func postAsync(client *http.Client, url, tenant string, body []byte) postResult {
	resp, err := client.Post(url+"/v1/tenants/"+tenant+"/shards", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return postResult{err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	res := postResult{status: resp.StatusCode, err: err}
	if err == nil && resp.StatusCode == http.StatusOK {
		res.err = json.Unmarshal(data, &res.resp)
	}
	return res
}

func getStatus(t *testing.T, client *http.Client, url, tenant string) TenantStatus {
	t.Helper()
	resp, err := client.Get(url + "/v1/tenants/" + tenant)
	if err != nil {
		t.Fatalf("GET status: %v", err)
	}
	defer resp.Body.Close()
	var st TenantStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding status: %v", err)
	}
	return st
}

// gatedTrain wraps core.Train so a test can park chosen calls: call n
// (1-based) blocks after signalling entered until release is closed.
type gatedTrain struct {
	calls   atomic.Int32
	blockAt int32
	entered chan struct{}
	release chan struct{}
}

func newGatedTrain(blockAt int32) *gatedTrain {
	return &gatedTrain{blockAt: blockAt, entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gatedTrain) train(p *profiler.Profile, params core.Params) (*core.TrainResult, error) {
	if g.calls.Add(1) == g.blockAt {
		close(g.entered)
		<-g.release
	}
	return core.Train(p, params)
}

func waitEntered(t *testing.T, g *gatedTrain) {
	t.Helper()
	select {
	case <-g.entered:
	case <-time.After(30 * time.Second):
		t.Fatal("retrain never reached the trainer")
	}
}

// TestReadsDoNotWaitOnTraining parks a retrain inside the trainer and
// checks that bundle GETs (304 and 200) and the tenant status answer
// with the old version meanwhile, then that releasing the trainer
// publishes the new one.
func TestReadsDoNotWaitOnTraining(t *testing.T) {
	s, ts := newTestServer(t, testConfig(t))
	gate := newGatedTrain(2)
	s.train = gate.train
	client := guardClient(ts)

	sr1 := postShard(t, ts, "hot", encodeShard(t, appRecords(t, "kafka", 0, 2000), traceio.FormatBinary), http.StatusOK)
	_, body1 := getBundle(t, ts, "hot", "")

	done := make(chan postResult, 1)
	python := encodeShard(t, appRecords(t, "python", 0, 2000), traceio.FormatBinary)
	go func() { done <- postAsync(client, ts.URL, "hot", python) }()
	waitEntered(t, gate)

	get := func(inm string) (*http.Response, []byte) {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/tenants/hot/bundle", nil)
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("GET bundle during retrain: %v", err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp, data
	}
	resp, _ := get(`"` + sr1.ETag + `"`)
	if resp.StatusCode != http.StatusNotModified || resp.Header.Get("X-Whisper-Bundle-Version") != "1" {
		t.Fatalf("conditional GET during retrain: %s v%s, want 304 v1",
			resp.Status, resp.Header.Get("X-Whisper-Bundle-Version"))
	}
	resp, data := get("")
	if resp.StatusCode != http.StatusOK || !bytes.Equal(data, body1) {
		t.Fatalf("GET during retrain: %s, old bytes=%v", resp.Status, bytes.Equal(data, body1))
	}
	st := getStatus(t, client, ts.URL, "hot")
	if st.BundleVersion != 1 || st.BundleETag != sr1.ETag || st.Shards != 2 || st.Retrains != 1 {
		t.Fatalf("status during retrain: %+v", st)
	}

	close(gate.release)
	res := <-done
	if res.err != nil || res.status != http.StatusOK || !res.resp.Retrained || res.resp.BundleVersion != 2 {
		t.Fatalf("parked POST: status %d err %v resp %+v", res.status, res.err, res.resp)
	}
	resp, _ = get(`"` + sr1.ETag + `"`)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") != `"`+res.resp.ETag+`"` {
		t.Fatalf("GET after release: %s etag %s, want 200 %s", resp.Status, resp.Header.Get("ETag"), res.resp.ETag)
	}
}

// TestSlowOlderRetrainDoesNotRollBack parks v2's training while v3 is
// decided, built and published; v2 finishing later must not replace it.
func TestSlowOlderRetrainDoesNotRollBack(t *testing.T) {
	s, ts := newTestServer(t, testConfig(t))
	gate := newGatedTrain(2)
	s.train = gate.train
	client := guardClient(ts)
	kafka := encodeShard(t, appRecords(t, "kafka", 0, 2000), traceio.FormatBinary)
	python := encodeShard(t, appRecords(t, "python", 0, 2000), traceio.FormatBinary)

	postShard(t, ts, "race", kafka, http.StatusOK)
	done := make(chan postResult, 1)
	go func() { done <- postAsync(client, ts.URL, "race", python) }()
	waitEntered(t, gate)
	sr3 := postShard(t, ts, "race", kafka, http.StatusOK)
	if !sr3.Retrained || sr3.BundleVersion != 3 {
		t.Fatalf("retrain decided during v2's training: %+v", sr3)
	}
	close(gate.release)
	res := <-done
	if res.err != nil || res.resp.BundleVersion != 2 || res.resp.ETag == sr3.ETag {
		t.Fatalf("slow POST must answer with its own v2: %+v (err %v)", res.resp, res.err)
	}
	resp, _ := getBundle(t, ts, "race", "")
	if resp.Header.Get("X-Whisper-Bundle-Version") != "3" || resp.Header.Get("ETag") != `"`+sr3.ETag+`"` {
		t.Fatalf("published v%s %s after the slow v2, want v3 %s",
			resp.Header.Get("X-Whisper-Bundle-Version"), resp.Header.Get("ETag"), sr3.ETag)
	}
	if st := getStatus(t, client, ts.URL, "race"); st.BundleVersion != 3 || st.Retrains != 3 {
		t.Fatalf("status after the slow v2: %+v", st)
	}
}

// TestConcurrentIngestNeverRollsBack runs two posters against one
// tenant (MaxInflight 2) beside a poller and checks that the version
// readers see never decreases. Meant for -race.
func TestConcurrentIngestNeverRollsBack(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxInflight = 2
	_, ts := newTestServer(t, cfg)
	client := guardClient(ts)
	shards := [][]byte{
		encodeShard(t, appRecords(t, "kafka", 0, 1500), traceio.FormatBinary),
		encodeShard(t, appRecords(t, "python", 0, 1500), traceio.FormatBinary),
		encodeShard(t, appRecords(t, "clang", 0, 1500), traceio.FormatBinary),
	}
	postShard(t, ts, "mono", shards[0], http.StatusOK)

	const perPoster = 6
	var posters sync.WaitGroup
	var maxVersion atomic.Int64
	errs := make(chan error, 2*perPoster+1)
	for p := 0; p < 2; p++ {
		posters.Add(1)
		go func(p int) {
			defer posters.Done()
			for i := 0; i < perPoster; i++ {
				res := postAsync(client, ts.URL, "mono", shards[(p+i)%len(shards)])
				switch {
				case res.err != nil:
					errs <- res.err
				case res.status == http.StatusOK:
					for v := int64(res.resp.BundleVersion); ; {
						cur := maxVersion.Load()
						if v <= cur || maxVersion.CompareAndSwap(cur, v) {
							break
						}
					}
				case res.status != http.StatusTooManyRequests:
					errs <- errors.New("POST: unexpected status " + strconv.Itoa(res.status))
				}
			}
		}(p)
	}
	stop := make(chan struct{})
	polled := make(chan int, 1)
	go func() {
		last, polls := 0, 0
		defer func() { polled <- polls }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := client.Get(ts.URL + "/v1/tenants/mono/bundle")
			if err != nil {
				errs <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			v, _ := strconv.Atoi(resp.Header.Get("X-Whisper-Bundle-Version"))
			if resp.StatusCode != http.StatusOK || v < last {
				errs <- errors.New("GET went from v" + strconv.Itoa(last) + " to " + resp.Status + " v" + strconv.Itoa(v))
				return
			}
			last = v
			polls++
		}
	}()
	posters.Wait()
	close(stop)
	<-polled
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := getStatus(t, client, ts.URL, "mono"); int64(st.BundleVersion) != maxVersion.Load() {
		t.Fatalf("published v%d, newest POSTed v%d", st.BundleVersion, maxVersion.Load())
	}
}

// TestFailedRetrainIsAbandoned checks a build failure leaves the tenant
// as if the shard had not triggered a retrain: the next shard retrains
// the same version on the window both shards make up.
func TestFailedRetrainIsAbandoned(t *testing.T) {
	s, ts := newTestServer(t, testConfig(t))
	var calls atomic.Int32
	s.train = func(p *profiler.Profile, params core.Params) (*core.TrainResult, error) {
		if calls.Add(1) == 1 {
			return nil, errors.New("injected")
		}
		return core.Train(p, params)
	}
	body := encodeShard(t, appRecords(t, "kafka", 0, 1500), traceio.FormatBinary)
	postShard(t, ts, "flaky", body, http.StatusInternalServerError)
	if resp, _ := getBundle(t, ts, "flaky", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET after failed first retrain: %s, want 404", resp.Status)
	}
	sr := postShard(t, ts, "flaky", body, http.StatusOK)
	if !sr.Retrained || sr.BundleVersion != 1 || sr.WindowRecords != 3000 {
		t.Fatalf("retry after failed retrain: %+v, want v1 on 3000 records", sr)
	}
}

// TestETagCarriesVersion pins the ETag semantics: the store key holds
// the version, so two retrains on identical windows train identical
// hints yet serve different bytes, ETags and version headers.
func TestETagCarriesVersion(t *testing.T) {
	_, ts := newTestServer(t, testConfig(t))
	kafka := encodeShard(t, appRecords(t, "kafka", 0, 2000), traceio.FormatBinary)
	postShard(t, ts, "same", kafka, http.StatusOK)
	resp1, body1 := getBundle(t, ts, "same", "")
	postShard(t, ts, "same", encodeShard(t, appRecords(t, "python", 0, 2000), traceio.FormatBinary), http.StatusOK)
	sr3 := postShard(t, ts, "same", kafka, http.StatusOK)
	if !sr3.Retrained || sr3.BundleVersion != 3 {
		t.Fatalf("third shard: %+v, want retrain to v3", sr3)
	}
	resp3, body3 := getBundle(t, ts, "same", resp1.Header.Get("ETag"))
	if resp3.StatusCode != http.StatusOK || resp3.Header.Get("ETag") == resp1.Header.Get("ETag") {
		t.Fatalf("v3 on v1's window: %s, ETag %s (v1 %s)", resp3.Status, resp3.Header.Get("ETag"), resp1.Header.Get("ETag"))
	}
	if v1, v3 := resp1.Header.Get("X-Whisper-Bundle-Version"), resp3.Header.Get("X-Whisper-Bundle-Version"); v1 != "1" || v3 != "3" {
		t.Fatalf("version headers %s and %s, want 1 and 3", v1, v3)
	}
	a1, err := store.Decode(body1)
	if err != nil {
		t.Fatal(err)
	}
	a3, err := store.Decode(body3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a1.Train, a3.Train) {
		t.Fatal("identical windows trained different hints")
	}
	// The key is the only difference.
	a3.Meta.Key = a1.Meta.Key
	if again, err := store.Encode(a3); err != nil || !bytes.Equal(again, body1) {
		t.Fatalf("v3 with v1's key does not re-encode to v1's bytes (err %v)", err)
	}
}

// TestRestartRecovery stops a server and starts another on the same
// directory: it serves the same bundle (ETag, 304, bytes), skips and
// counts a torn newer file, and the next retrain is v(N+1).
func TestRestartRecovery(t *testing.T) {
	reg := telemetry.Install(telemetry.NewRegistry())
	defer telemetry.Install(nil)
	cfg := testConfig(t)
	s1, ts1 := newTestServer(t, cfg)
	postShard(t, ts1, "edge", encodeShard(t, appRecords(t, "kafka", 0, 2000), traceio.FormatBinary), http.StatusOK)
	sr2 := postShard(t, ts1, "edge", encodeShard(t, appRecords(t, "python", 0, 2000), traceio.FormatBinary), http.StatusOK)
	_, body2 := getBundle(t, ts1, "edge", "")
	ref := s1.tenants["edge"].bundle.Load()
	ts1.Close()

	// The file on disk is the served bytes, and hashes to the ETag.
	onDisk, err := os.ReadFile(ref.Path)
	if err != nil || !bytes.Equal(onDisk, body2) || contentFingerprint(onDisk) != sr2.ETag {
		t.Fatalf("persisted bundle differs from the served one (err %v)", err)
	}
	// A torn v3 (as if the process died mid-write without the rename
	// discipline) must not win over the intact v2.
	torn := filepath.Join(cfg.Dir, bundleFile("edge", 3, sr2.ETag))
	if err := os.WriteFile(torn, body2[:len(body2)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	_, ts2 := newTestServer(t, cfg)
	if got := reg.Counter("whisper_server_recovery_skipped_total").Value(); got != 1 {
		t.Fatalf("recovery skipped %d files, want 1", got)
	}
	resp, _ := getBundle(t, ts2, "edge", `"`+sr2.ETag+`"`)
	if resp.StatusCode != http.StatusNotModified || resp.Header.Get("X-Whisper-Bundle-Version") != "2" {
		t.Fatalf("conditional GET after restart: %s v%s, want 304 v2",
			resp.Status, resp.Header.Get("X-Whisper-Bundle-Version"))
	}
	resp, body := getBundle(t, ts2, "edge", "")
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, body2) {
		t.Fatalf("GET after restart: %s, same bytes=%v", resp.Status, bytes.Equal(body, body2))
	}
	sr := postShard(t, ts2, "edge", encodeShard(t, appRecords(t, "kafka", 1, 2000), traceio.FormatBinary), http.StatusOK)
	if !sr.Retrained || sr.BundleVersion != 3 || sr.ETag == sr2.ETag {
		t.Fatalf("first retrain after restart: %+v, want v3", sr)
	}
}

// TestRecoveryRespectsMaxTenants recovers tenants in id order up to the
// table bound.
func TestRecoveryRespectsMaxTenants(t *testing.T) {
	cfg := testConfig(t)
	_, ts1 := newTestServer(t, cfg)
	body := encodeShard(t, appRecords(t, "kafka", 0, 1500), traceio.FormatBinary)
	for _, id := range []string{"charlie", "alpha", "bravo"} {
		postShard(t, ts1, id, body, http.StatusOK)
	}
	ts1.Close()

	cfg.MaxTenants = 2
	s2, ts2 := newTestServer(t, cfg)
	if len(s2.tenants) != 2 {
		t.Fatalf("recovered %d tenants, want 2", len(s2.tenants))
	}
	for id, want := range map[string]int{"alpha": http.StatusOK, "bravo": http.StatusOK, "charlie": http.StatusNotFound} {
		if resp, _ := getBundle(t, ts2, id, ""); resp.StatusCode != want {
			t.Errorf("GET %s after restart: %s, want %d", id, resp.Status, want)
		}
	}
}
