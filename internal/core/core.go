// Package core implements Whisper's primary contribution (paper §III):
// profile-guided branch misprediction elimination through
//
//  1. hashed history correlation — correlating a branch's direction with
//     the XOR-folded hash of variable-length histories drawn from a
//     geometric series (a=8, N=1024, m=16),
//  2. randomized formula testing — scoring only a Fisher-Yates-randomized
//     subset of the 2^15 extended Boolean formulas, and
//  3. extended Read-Once Monotone Boolean Formulas with Implication and
//     Converse Non-Implication.
//
// Training consumes an in-production profile (internal/profiler), selects
// the best (history length, formula) pair per hard branch with the
// paper's Algorithm 1, and keeps a hint only when it beats the profiled
// predictor. Link-time injection (internal/cfg placement + internal/hint
// encoding) produces an "updated binary"; the Runtime type models the
// hint buffer and micro-architectural formula evaluation next to the
// baseline predictor.
package core

import (
	"fmt"
	"sort"
	"time"

	"github.com/whisper-sim/whisper/internal/bpu"
	"github.com/whisper-sim/whisper/internal/formula"
	"github.com/whisper-sim/whisper/internal/hint"
	"github.com/whisper-sim/whisper/internal/profiler"
	"github.com/whisper-sim/whisper/internal/telemetry"
)

// Params are Whisper's design parameters (paper Table III).
type Params struct {
	// MinHistory, MaxHistory, NumLengths define the geometric series
	// (8, 1024, 16).
	MinHistory, MaxHistory, NumLengths int
	// ExploreFraction is the share of all 2^15 formulas that randomized
	// formula testing scores per branch. The paper reports 0.1% as its
	// knee; with this reproduction's uniform synthetic fold
	// distributions the accuracy landscape is sparser and the knee sits
	// near 5% (see EXPERIMENTS.md, Fig 15), which is the default here.
	// Values >= 1 switch to the exact factorized exhaustive search.
	ExploreFraction float64
	// Seed drives the shared Fisher-Yates permutation.
	Seed uint64
	// MinExecs skips branches with too few profile samples.
	MinExecs uint64
	// MinGainFrac and MinGainAbs set the deployment bar: a hint is kept
	// only when its profiled mispredictions undercut the baseline's by
	// at least MinGainFrac (relative) and MinGainAbs (absolute).
	// Marginal hints do not survive input drift (paper Fig 17), so the
	// bar trades a little same-input reduction for cross-input
	// robustness.
	MinGainFrac float64
	MinGainAbs  uint64

	// HashedHistory enables technique (1); when false only the raw
	// 8-bit history is considered (the Fig 14 ablation).
	HashedHistory bool
	// ExtendedOps enables technique (3); when false candidate formulas
	// are restricted to AND/OR trees (plus inversion is disabled), i.e.
	// plain ROMBF expressiveness.
	ExtendedOps bool
	// NoValidation deploys hints on training-half numbers alone,
	// skipping the held-out check (the literal Algorithm 1; an ablation
	// showing why the validation split exists — without it, formulas
	// that fit profile noise ship and regress on unseen inputs).
	NoValidation bool
}

// DefaultParams returns Table III.
func DefaultParams() Params {
	return Params{
		MinHistory:      bpu.GeomMin,
		MaxHistory:      bpu.GeomMax,
		NumLengths:      bpu.GeomCount,
		ExploreFraction: 0.05,
		Seed:            0x3B157E12,
		MinExecs:        20,
		MinGainFrac:     0.10,
		MinGainAbs:      2,
		HashedHistory:   true,
		ExtendedOps:     true,
	}
}

// Lengths returns the geometric series for the parameters.
func (p Params) Lengths() []int {
	return bpu.GeomLengths(p.MinHistory, p.MaxHistory, p.NumLengths)
}

// Hint is one trained Whisper annotation prior to injection.
type Hint struct {
	PC uint64
	// LengthIdx indexes Params.Lengths(); meaningful when Bias is
	// BiasNone.
	LengthIdx int
	Formula   formula.Formula
	Bias      hint.Bias
	// ProfiledMisp is the hint's misprediction count on the training
	// histograms; BaselineMisp the profiled predictor's over the full
	// window; ValMisp the hint's count on the held-out validation half.
	ProfiledMisp, BaselineMisp, ValMisp uint64
}

// TrainResult carries the hints plus training cost (paper Figs 15/16).
type TrainResult struct {
	Hints    map[uint64]Hint
	Params   Params
	Lengths  []int
	Trained  int
	Duration time.Duration
	// FormulaEvals counts Algorithm 1 formula scorings (the randomized
	// testing exploration cost).
	FormulaEvals uint64
}

// Train learns Whisper hints from a profile collected with the same
// geometric length series (profiler defaults).
func Train(p *profiler.Profile, params Params) (*TrainResult, error) {
	sp := telemetry.StartSpan("train")
	defer sp.End()
	lengths := params.Lengths()
	if len(p.Lengths) < len(lengths) {
		return nil, fmt.Errorf("core: profile has %d lengths, params need %d", len(p.Lengths), len(lengths))
	}
	for i, l := range lengths {
		if p.Lengths[i] != l {
			return nil, fmt.Errorf("core: profile length[%d]=%d, params expect %d", i, p.Lengths[i], l)
		}
	}
	start := time.Now()
	cs := buildCandidates(params)
	st := new(scoreTable)
	res := &TrainResult{
		Hints:   make(map[uint64]Hint),
		Params:  params,
		Lengths: lengths,
	}

	pcs := make([]uint64, 0, len(p.Hard))
	for pc := range p.Hard {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })

	nLengths := len(lengths)
	if !params.HashedHistory {
		nLengths = 1 // only the raw 8-bit history (lengths[0] == 8)
	}

	for _, pc := range pcs {
		hp := p.Hard[pc]
		// Evidence floor: a hint trained from a handful of executions is
		// statistically fragile, and under input drift a rarely-executed
		// branch can become hot — deploying on thin evidence risks large
		// regressions.
		if hp.Execs < params.MinExecs || hp.MeasExecs < params.MinExecs {
			continue
		}
		res.Trained++

		var takenTotal, ntTotal uint64
		for h := 0; h < 256; h++ {
			takenTotal += uint64(hp.T[0][h])
			ntTotal += uint64(hp.NT[0][h])
		}

		// Bias candidates: tautology and contradiction (2-bit Bias field).
		best := Hint{PC: pc, Bias: hint.BiasTaken, ProfiledMisp: ntTotal}
		if takenTotal < best.ProfiledMisp {
			best = Hint{PC: pc, Bias: hint.BiasNotTaken, ProfiledMisp: takenTotal}
		}

		// Hashed history correlation: pick the length whose best formula
		// mispredicts least on the training half (paper §III-A).
		for li := 0; li < nLengths; li++ {
			f, misp := findBooleanFormula(&hp.T[li], &hp.NT[li], cs, st, &res.FormulaEvals)
			if misp < best.ProfiledMisp {
				best = Hint{PC: pc, LengthIdx: li, Formula: f, Bias: hint.BiasNone, ProfiledMisp: misp}
			}
		}
		best.BaselineMisp = hp.Misp

		// Validate the single selected candidate on the held-out half:
		// a formula that fit profile noise (a data-dependent branch) or
		// only the baseline predictor's cold start will not clear the
		// bar here, which is what keeps hints useful on unseen inputs
		// (paper Fig 17).
		valMisp := hintMispOn(best, &hp.VT, &hp.VNT)
		best.ValMisp = valMisp
		if params.NoValidation {
			if beatsBar(best.ProfiledMisp, hp.Misp, params.MinGainFrac, params.MinGainAbs) {
				res.Hints[pc] = best
			}
		} else if beatsBar(valMisp, hp.MispVal, params.MinGainFrac, params.MinGainAbs) {
			res.Hints[pc] = best
		}
	}
	res.Duration = time.Since(start)
	if r := telemetry.Default(); r != nil {
		r.Counter("whisper_train_runs_total").Inc()
		r.Counter("whisper_train_branches_total").Add(uint64(res.Trained))
		r.Counter("whisper_train_hints_total").Add(uint64(len(res.Hints)))
		r.Counter("whisper_train_formula_evals_total").Add(res.FormulaEvals)
	}
	return res, nil
}

// beatsBar reports whether hint mispredictions undercut the baseline by
// the configured relative and absolute margins.
func beatsBar(hintMisp, baseMisp uint64, frac float64, abs uint64) bool {
	if hintMisp+abs > baseMisp {
		return false
	}
	return float64(baseMisp-hintMisp) >= frac*float64(baseMisp)
}

// hintMispOn counts the hint's mispredictions over validation histograms.
func hintMispOn(h Hint, vt, vnt *[][256]uint32) uint64 {
	var misp uint64
	switch h.Bias {
	case hint.BiasTaken:
		for hh := 0; hh < 256; hh++ {
			misp += uint64((*vnt)[0][hh])
		}
	case hint.BiasNotTaken:
		for hh := 0; hh < 256; hh++ {
			misp += uint64((*vt)[0][hh])
		}
	default:
		tt := h.Formula.Table()
		for hh := 0; hh < 256; hh++ {
			if tt.Bit(uint8(hh)) {
				misp += uint64((*vnt)[h.LengthIdx][hh])
			} else {
				misp += uint64((*vt)[h.LengthIdx][hh])
			}
		}
	}
	return misp
}
