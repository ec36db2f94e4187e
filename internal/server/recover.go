package server

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"

	"github.com/whisper-sim/whisper/internal/store"
)

// bundleFileRE parses bundleFile names: tenant id, version, and the
// first 12 hex digits of the ETag. The id group is greedy, and the
// fixed-shape suffix pins where it ends.
var bundleFileRE = regexp.MustCompile(`^bundle-([A-Za-z0-9._-]+)-v([0-9]+)-([0-9a-f]{12})\.wspa$`)

// recoverBundles republishes, for every tenant with bundle files in the
// artifact directory, its highest version whose file is intact, and
// continues the tenant's version counter from it. A file is intact when
// it decodes (CRC included), its SHA-256 starts with the ETag prefix in
// its name, and its store key names the same tenant and version. Files
// that fail are skipped and counted in
// whisper_server_recovery_skipped_total; versions below the one
// published are not read. Tenants are recovered in id order up to
// MaxTenants.
//
// A recovered tenant has no trained profile to measure drift against,
// so its drift reads 1 until the next retrain, which the policy takes
// as soon as the window holds MinRetrainRecords.
func (s *Server) recoverBundles() error {
	entries, err := os.ReadDir(s.cfg.Dir)
	if err != nil {
		return err
	}
	type candidate struct {
		name    string
		version int
		etag12  string
	}
	byTenant := make(map[string][]candidate)
	for _, e := range entries {
		m := bundleFileRE.FindStringSubmatch(e.Name())
		if m == nil || !e.Type().IsRegular() || !validTenantID(m[1]) {
			continue
		}
		v, err := strconv.Atoi(m[2])
		if err != nil || v < 1 {
			continue
		}
		byTenant[m[1]] = append(byTenant[m[1]], candidate{e.Name(), v, m[3]})
	}
	ids := make([]string, 0, len(byTenant))
	for id := range byTenant {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	skipped := counter(s.reg(), "whisper_server_recovery_skipped_total")
	for _, id := range ids {
		if len(s.tenants) >= s.cfg.MaxTenants {
			break
		}
		cands := byTenant[id]
		sort.Slice(cands, func(i, j int) bool { return cands[i].version > cands[j].version })
		for _, c := range cands {
			path := filepath.Join(s.cfg.Dir, c.name)
			data, err := os.ReadFile(path)
			if err != nil {
				skipped.Inc()
				continue
			}
			etag := contentFingerprint(data)
			art, err := store.Decode(data)
			if err != nil || etag[:12] != c.etag12 || art.Meta.Key != bundleKey(id, c.version) || art.Train == nil {
				skipped.Inc()
				continue
			}
			t := newTenant(id, s.cfg.MaxInflight)
			t.version = c.version
			t.bundle.Store(&bundleRef{
				Version: c.version,
				ETag:    etag,
				Path:    path,
				Hints:   len(art.Train.Hints),
				Records: uint64(art.Meta.Records),
			})
			s.tenants[id] = t
			s.bundles.put(etag, data)
			s.tenantGauge(id, "bundle_version").Set(int64(c.version))
			break
		}
	}
	s.reg().Gauge("whisper_server_tenants").Set(int64(len(s.tenants)))
	return nil
}
