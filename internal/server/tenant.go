package server

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/whisper-sim/whisper/internal/profiler"
	"github.com/whisper-sim/whisper/internal/sim"
	"github.com/whisper-sim/whisper/internal/store"
	"github.com/whisper-sim/whisper/internal/telemetry"
	"github.com/whisper-sim/whisper/internal/trace"
)

// tenant is one application's server-side state: the rolling profile of
// the shards received since the last retrain decision, the profile the
// newest decided bundle trains on, and the published bundle. sem is the
// per-tenant admission gate (ingests beyond its capacity are turned
// away with 429 instead of queueing unboundedly).
//
// mu guards the decision state only and is held for the merge, the
// drift computation and the policy check — never for training. The
// published bundle sits outside it, so bundle reads and status never
// wait on a retrain.
type tenant struct {
	id  string
	sem chan struct{}

	// bundle is the published bundle, read without mu; publish only
	// ever replaces it with a higher version.
	bundle atomic.Pointer[bundleRef]

	mu sync.Mutex
	// window accumulates the shards profiled since the last retrain
	// decision (profile.Merge); trained is the window that decision
	// handed to training. Drift compares the two. trained is never
	// mutated once it leaves window, so training reads it unlocked.
	window  *profiler.Profile
	trained *profiler.Profile
	// windowRecords counts trace records merged into window.
	windowRecords uint64
	shards        uint64
	retrains      uint64
	lastDrift     float64
	// version is the number the newest retrain decision took (the
	// recovered version after a restart, 0 before the first).
	version int
}

func newTenant(id string, maxInflight int) *tenant {
	return &tenant{id: id, sem: make(chan struct{}, maxInflight)}
}

// bundleRef describes one immutable bundle version. The bytes live in
// the LRU cache and, durably, in the artifact file at Path.
type bundleRef struct {
	Version int
	// ETag is the bundle's content fingerprint (SHA-256 of the encoded
	// artifact), served as a strong HTTP ETag.
	ETag string
	Path string
	// Hints counts trained hints; Records the window the training saw.
	Hints   int
	Records uint64
}

// TenantStatus is the ops-facing snapshot of one tenant, served on
// GET /v1/tenants[/{id}].
type TenantStatus struct {
	ID            string  `json:"id"`
	Shards        uint64  `json:"shards"`
	WindowRecords uint64  `json:"window_records"`
	Retrains      uint64  `json:"retrains"`
	LastDrift     float64 `json:"last_drift"`
	BundleVersion int     `json:"bundle_version,omitempty"`
	BundleETag    string  `json:"bundle_etag,omitempty"`
	BundleHints   int     `json:"bundle_hints,omitempty"`
}

// ShardResponse is the body of a successful shard ingest.
type ShardResponse struct {
	Tenant        string  `json:"tenant"`
	ShardRecords  int     `json:"shard_records"`
	WindowRecords uint64  `json:"window_records"`
	Drift         float64 `json:"drift"`
	Retrained     bool    `json:"retrained"`
	BundleVersion int     `json:"bundle_version"`
	ETag          string  `json:"etag,omitempty"`
}

// status snapshots the tenant: the counters under mu, the bundle
// from the published pointer.
func (t *tenant) status() TenantStatus {
	t.mu.Lock()
	st := TenantStatus{
		ID:            t.id,
		Shards:        t.shards,
		WindowRecords: t.windowRecords,
		Retrains:      t.retrains,
		LastDrift:     t.lastDrift,
	}
	t.mu.Unlock()
	if ref := t.bundle.Load(); ref != nil {
		st.BundleVersion = ref.Version
		st.BundleETag = ref.ETag
		st.BundleHints = ref.Hints
	}
	return st
}

// retrainJob is one retrain decided under the tenant lock and built
// outside it.
type retrainJob struct {
	version int
	// window is the profile to train on; it is the tenant's trained
	// snapshot now and read-only.
	window  *profiler.Profile
	records uint64
	// prevTrained is restored if the build fails.
	prevTrained *profiler.Profile
}

// ingest merges one decoded shard into the tenant's rolling profile and
// applies the retraining policy: the first shard always trains (there
// is no bundle to serve without it), later shards retrain when at least
// MinRetrainRecords have accumulated since the last training AND the
// drift against the trained profile crosses DriftThreshold. A retrain
// is decided under the tenant lock and built and published outside it
// (see docs/serving.md, "Concurrency model"); the POST still waits for
// its own bundle. It returns the response body for the POST.
func (s *Server) ingest(t *tenant, recs []trace.Record) (*ShardResponse, error) {
	sp := telemetry.StartSpan("serve.ingest")
	defer sp.End()

	bopt := sim.DefaultBuildOptions()
	bopt.Records = len(recs)
	bopt.Params = s.cfg.Params
	prof, err := sim.ProfileTrace(recs, bopt)
	if err != nil {
		return nil, fmt.Errorf("profiling shard: %w", err)
	}

	resp, job, err := s.decide(t, prof, len(recs))
	if err != nil {
		return nil, err
	}
	if job == nil {
		if ref := t.bundle.Load(); ref != nil {
			resp.BundleVersion = ref.Version
			resp.ETag = ref.ETag
		}
		return resp, nil
	}
	ref, err := s.retrain(t, job)
	if err != nil {
		t.abandon(job)
		return nil, err
	}
	resp.Retrained = true
	resp.BundleVersion = ref.Version
	resp.ETag = ref.ETag
	return resp, nil
}

// decide is the tenant's critical section: merge the shard profile,
// compute drift, apply the policy and, on a retrain, take the next
// version and roll the window into the trained snapshot. Decisions
// depend only on profiles, never on trained hints, so they are exactly
// those of training under the lock.
func (s *Server) decide(t *tenant, prof *profiler.Profile, n int) (*ShardResponse, *retrainJob, error) {
	sp := telemetry.StartSpan("serve.retrain.decide")
	defer sp.End()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.window == nil {
		t.window = prof
	} else if err := t.window.Merge(prof); err != nil {
		return nil, nil, fmt.Errorf("merging shard profile: %w", err)
	}
	t.windowRecords += uint64(n)
	t.shards++
	counter(s.reg(), "whisper_server_shards_total").Inc()
	counter(s.reg(), "whisper_server_shard_records_total").Add(uint64(n))

	// The drift the decision sees: 1 while nothing is trained yet (the
	// whole window is "new" behaviour), the overlap complement after.
	drift := 1.0
	if t.trained != nil {
		drift = Drift(t.trained, t.window)
	}
	t.lastDrift = drift
	s.tenantGauge(t.id, "window_records").Set(int64(t.windowRecords))
	s.tenantGauge(t.id, "drift_millis").Set(int64(drift * 1000))

	resp := &ShardResponse{
		Tenant:        t.id,
		ShardRecords:  n,
		WindowRecords: t.windowRecords,
		Drift:         drift,
	}
	needTrain := t.version == 0 ||
		(t.windowRecords >= uint64(s.cfg.MinRetrainRecords) && drift > s.cfg.DriftThreshold)
	if !needTrain {
		return resp, nil, nil
	}
	t.version++
	job := &retrainJob{version: t.version, window: t.window, records: t.windowRecords, prevTrained: t.trained}
	t.trained = t.window
	t.window = nil
	t.windowRecords = 0
	s.tenantGauge(t.id, "window_records").Set(0)
	return resp, job, nil
}

// abandon undoes the decision of a retrain whose build failed, leaving
// the tenant as if the shard had not triggered it: the failed window
// goes back in front of the shards merged since, and the previous
// trained snapshot and version return. If a newer retrain was decided
// meanwhile, it supersedes the failed one and nothing is restored.
func (t *tenant) abandon(job *retrainJob) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.version != job.version {
		return
	}
	if t.window != nil {
		// Both sides were profiled with the server's parameters, so
		// their length sets always agree.
		if err := job.window.Merge(t.window); err != nil {
			return
		}
	}
	t.window = job.window
	t.windowRecords += job.records
	t.trained = job.prevTrained
	t.version--
}

// bundleKey is the store key of a tenant's bundle version. It carries
// the version, so every version has its own bytes and ETag even when
// two windows train identical hints.
func bundleKey(id string, version int) string {
	return fmt.Sprintf("serve:%s:v%d", id, version)
}

// bundleFile is the artifact file name of a bundle version; recovery
// parses it back with bundleFileRE.
func bundleFile(id string, version int, etag string) string {
	return fmt.Sprintf("bundle-%s-v%d-%s.wspa", id, version, etag[:12])
}

// retrain builds the bundle a retrain decision asked for — train,
// encode, persist — without the tenant lock, then publishes it. It
// returns the job's own bundle, which a concurrent newer retrain may
// already have superseded.
func (s *Server) retrain(t *tenant, job *retrainJob) (*bundleRef, error) {
	sp := telemetry.StartSpan("serve.retrain")
	defer sp.End()
	start := time.Now()

	step := telemetry.StartSpan("serve.retrain.train")
	tr, err := s.train(job.window, s.cfg.Params)
	step.End()
	if err != nil {
		return nil, fmt.Errorf("training %s: %w", t.id, err)
	}
	// Served bundle bytes must be a pure function of (window, params,
	// tenant, version), so the served bundle equals the offline
	// artifact. The wall-clock duration is journal material, not bundle
	// material.
	tr.Duration = 0
	art := &store.Artifact{
		Meta: store.Meta{
			App:     "tenant:" + t.id,
			Records: int(job.records),
			Key:     bundleKey(t.id, job.version),
		},
		Train:        tr,
		WindowInstrs: job.window.Instrs,
	}
	step = telemetry.StartSpan("serve.retrain.encode")
	data, err := store.Encode(art)
	step.End()
	if err != nil {
		return nil, fmt.Errorf("encoding bundle for %s: %w", t.id, err)
	}
	ref := &bundleRef{
		Version: job.version,
		ETag:    contentFingerprint(data),
		Hints:   len(tr.Hints),
		Records: job.records,
	}
	ref.Path = filepath.Join(s.cfg.Dir, bundleFile(t.id, ref.Version, ref.ETag))
	step = telemetry.StartSpan("serve.retrain.persist")
	err = store.WriteBytes(ref.Path, data)
	step.End()
	if err != nil {
		return nil, fmt.Errorf("persisting bundle for %s: %w", t.id, err)
	}

	step = telemetry.StartSpan("serve.retrain.publish")
	s.bundles.put(ref.ETag, data)
	t.publish(ref)
	t.mu.Lock()
	t.retrains++
	// Under mu, so the last writer sees the newest published version.
	s.tenantGauge(t.id, "bundle_version").Set(int64(t.bundle.Load().Version))
	t.mu.Unlock()
	step.End()

	counter(s.reg(), "whisper_server_retrains_total").Inc()
	if r := s.reg(); r != nil {
		r.DurationHistogram("whisper_server_retrain_seconds").Observe(uint64(time.Since(start)))
	}
	s.cfg.Journal.WriteUnit(fmt.Sprintf("serve/%s/retrain/v%d", t.id, ref.Version),
		time.Since(start), job.window.Instrs, job.records)
	return ref, nil
}

// publish makes ref the served bundle unless a newer version is
// already published, so a slow older retrain never rolls readers back.
func (t *tenant) publish(ref *bundleRef) {
	for {
		cur := t.bundle.Load()
		if cur != nil && cur.Version >= ref.Version {
			return
		}
		if t.bundle.CompareAndSwap(cur, ref) {
			return
		}
	}
}
