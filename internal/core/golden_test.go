package core_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"github.com/whisper-sim/whisper/internal/core"
	"github.com/whisper-sim/whisper/internal/profiler"
	"github.com/whisper-sim/whisper/internal/store"
	"github.com/whisper-sim/whisper/internal/tage"
	"github.com/whisper-sim/whisper/internal/trace"
	"github.com/whisper-sim/whisper/internal/workload"
)

// goldenRecords is the profiled window of each golden app: large enough
// that every configuration trains dozens of hard branches, small enough
// for the exact search to stay a fraction of a second.
const goldenRecords = 150000

// trainGolden holds the SHA-256 digest of each configuration's canonical
// trained bundle, recorded from the per-candidate set-bit scorer and the
// branchy nibble-table exact search that the shared score table
// replaced. Any change to the chosen formulas, lengths, hints or
// FormulaEvals changes the digest.
var trainGolden = map[string]string{
	"kafka/explore=0.05/ext=true/hashed=true":   "d6f30d5025f93303e1fa866d89fc61717710eb6b8e3d9f60ffea17be43ce3919",
	"kafka/explore=0.05/ext=true/hashed=false":  "0f10b9651adc78226a05cc016bedf179a97bcc736658d99bb155adcedf68cd69",
	"kafka/explore=0.05/ext=false/hashed=true":  "6aeaa4cf947dbe7c38fdcc14d3ffdd2712c20cb8422889c86ecbaf25f6c7ed07",
	"kafka/explore=0.05/ext=false/hashed=false": "5ceff372fe900dd0afc7026f3d3f4bca58c0a7951d089a43dee121802ba79391",
	"kafka/explore=1/ext=true/hashed=true":      "eae25b0ef97dc01c99d5dbfec84ebd8184ac5457ac2f608f3242cb0aafa7f514",
	"kafka/explore=1/ext=true/hashed=false":     "b8c49aaefe11023e4400317dbe1c2b95323690384396305d5497849078dd6085",
	"kafka/explore=1/ext=false/hashed=true":     "91d7dfef3e4340da467a4c4a5a157e3ddc87a7a4781da80d869ae790217098b8",
	"kafka/explore=1/ext=false/hashed=false":    "2138658d3b1439185bfec502afa27b1e791d93628d37a9786fa4723007199708",
	"mysql/explore=0.05/ext=true/hashed=true":   "40646d83db040f4225f24638f33c5c78853494d268980ad1df341996ea4e07ba",
	"mysql/explore=0.05/ext=true/hashed=false":  "a2bde919869389e39aec28ff1ffa113128092d8604c32f071bb6cbd7b0932d94",
	"mysql/explore=0.05/ext=false/hashed=true":  "0376e53a603927af402ba18c598ff143db1cad0dfd8eedf496e2825f92538baf",
	"mysql/explore=0.05/ext=false/hashed=false": "8063c3d34d4bb56da50bb66e59e4d2072e8b2df8e1c5338b017a05b86f252f20",
	"mysql/explore=1/ext=true/hashed=true":      "08839c42a0346bac7783f799589d5bdd98c51805ccbc96f9f5e2b4436fc4e5da",
	"mysql/explore=1/ext=true/hashed=false":     "e5ebdb025cdb5191d4c26db445e3aee5199b51e511dc62fa3940bf54545f901c",
	"mysql/explore=1/ext=false/hashed=true":     "2665a14ff3027dca101f6d3a650d1a3f83e7e7da49818c01991274a067535f26",
	"mysql/explore=1/ext=false/hashed=false":    "5ef142b4ccafd3bd723b5e8c71e27a6a8e6e4c69c897a24b6c8c3de4e6428ca3",
}

func goldenProfile(t *testing.T, app string) *profiler.Profile {
	t.Helper()
	a := workload.DataCenterApp(app)
	if a == nil {
		t.Fatalf("unknown app %q", app)
	}
	p, err := profiler.Collect(func() trace.Stream { return a.Stream(0, goldenRecords) },
		tage.New(tage.DefaultConfig()), profiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// trainDigest hashes the canonical store encoding of tr (Duration
// zeroed, so equal training is equal bytes) followed by FormulaEvals.
func trainDigest(t *testing.T, tr *core.TrainResult) string {
	t.Helper()
	c := *tr
	c.Duration = 0
	b, err := store.Encode(&store.Artifact{Train: &c})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(b)
	h.Write(binary.LittleEndian.AppendUint64(nil, tr.FormulaEvals))
	return hex.EncodeToString(h.Sum(nil))
}

// TestTrainGoldenDigest locks Train's output, byte for byte, across
// rewrites of the formula search: randomized (5%) and exact (100%)
// exploration, with and without the extended operations and hashed
// history, on two Table I profiles.
func TestTrainGoldenDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("trains 16 configurations")
	}
	for _, app := range []string{"kafka", "mysql"} {
		prof := goldenProfile(t, app)
		for _, explore := range []float64{0.05, 1.0} {
			for _, ext := range []bool{true, false} {
				for _, hashed := range []bool{true, false} {
					name := fmt.Sprintf("%s/explore=%g/ext=%t/hashed=%t", app, explore, ext, hashed)
					p := core.DefaultParams()
					p.ExploreFraction = explore
					p.ExtendedOps = ext
					p.HashedHistory = hashed
					tr, err := core.Train(prof, p)
					if err != nil {
						t.Fatal(err)
					}
					if tr.Trained == 0 || len(tr.Hints) == 0 {
						t.Fatalf("%s: trained %d, hints %d; golden window too small", name, tr.Trained, len(tr.Hints))
					}
					got := trainDigest(t, tr)
					if want := trainGolden[name]; got != want {
						t.Errorf("%s: digest %s, want %s (evals %d)", name, got, want, tr.FormulaEvals)
					}
				}
			}
		}
	}
}
