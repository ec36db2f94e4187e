package core

import (
	"encoding/binary"
	"sort"
	"sync"
	"testing"

	"github.com/whisper-sim/whisper/internal/formula"
	"github.com/whisper-sim/whisper/internal/profiler"
	"github.com/whisper-sim/whisper/internal/tage"
	"github.com/whisper-sim/whisper/internal/trace"
	"github.com/whisper-sim/whisper/internal/workload"
	"github.com/whisper-sim/whisper/internal/xrand"
)

// evalTables[f] is formula f's truth table, built from the reference
// evaluator formula.Eval rather than the package's bitmap tables.
var evalTables = sync.OnceValue(func() *[formula.NumFormulas][256]bool {
	var t [formula.NumFormulas][256]bool
	for f := range t {
		for h := range t[f] {
			t[f][h] = formula.Formula(f).Eval(uint8(h))
		}
	}
	return &t
})

// naiveMisp is the reference scorer: a formula predicts taken on h when
// it evaluates true, so it mispredicts NT[h] there and T[h] elsewhere.
func naiveMisp(f formula.Formula, T, NT *[256]uint32) uint64 {
	tt := &evalTables()[f]
	var misp uint64
	for h := range tt {
		if tt[h] {
			misp += uint64(NT[h])
		} else {
			misp += uint64(T[h])
		}
	}
	return misp
}

// exactOrder is the exact search's documented scan order, rebuilt from
// unit ops: low subtree (units 0, 1, 4), high subtree (units 2, 3, 5),
// root op, inversion, innermost last.
func exactOrder() []formula.Formula {
	fs := make([]formula.Formula, 0, formula.NumFormulas)
	for lo := 0; lo < 64; lo++ {
		for hi := 0; hi < 64; hi++ {
			for root := formula.Op(0); root < formula.NumOps; root++ {
				for _, inv := range []bool{false, true} {
					fs = append(fs, formula.New([]formula.Op{
						formula.Op(lo & 3), formula.Op(lo >> 2 & 3),
						formula.Op(hi & 3), formula.Op(hi >> 2 & 3),
						formula.Op(lo >> 4), formula.Op(hi >> 4), root,
					}, inv))
				}
			}
		}
	}
	return fs
}

type searchCase struct {
	name  string
	cs    *candidateSet
	order []formula.Formula
}

// searchCases are the candidate sets Train uses: the default 5%
// randomized prefix, the exact search, and the 5% monotone ablation.
var searchCases = sync.OnceValue(func() []searchCase {
	explore5 := DefaultParams()
	exact := DefaultParams()
	exact.ExploreFraction = 1
	mono5 := DefaultParams()
	mono5.ExtendedOps = false
	cases := []searchCase{
		{name: "explore5", cs: buildCandidates(explore5)},
		{name: "exact", cs: buildCandidates(exact), order: exactOrder()},
		{name: "monotone5", cs: buildCandidates(mono5)},
	}
	for i := range cases {
		if cases[i].order == nil {
			cases[i].order = cases[i].cs.formulas
		}
	}
	return cases
})

// checkFormulaSearch asserts, for one histogram pair, that the score
// table's misp of every formula equals the naive misp, and that every
// candidate set's search returns the naive first minimum over its own
// order. st is reused across calls, as Train reuses it.
func checkFormulaSearch(t testing.TB, st *scoreTable, T, NT *[256]uint32) {
	t.Helper()
	naive := make([]uint64, formula.NumFormulas)
	st.build(T, NT, allEncodings, allEncodings)
	for i := range naive {
		f := formula.Formula(i)
		naive[i] = naiveMisp(f, T, NT)
		p := split(f)
		if p.join() != f {
			t.Fatalf("split(%#x) = %+v rejoins to %#x", i, p, uint16(p.join()))
		}
		if got := uint64(st.totalT + st.on(p)); got != naive[i] {
			t.Fatalf("formula %#x (%v): table misp %d, naive %d", i, f, got, naive[i])
		}
	}
	for _, c := range searchCases() {
		want := c.order[0]
		for _, f := range c.order[1:] {
			if naive[f] < naive[want] {
				want = f
			}
		}
		var evals uint64
		got, misp := findBooleanFormula(T, NT, c.cs, st, &evals)
		if got != want || misp != naive[want] {
			t.Fatalf("%s: search returned %#x misp %d, naive first minimum %#x misp %d",
				c.name, uint16(got), misp, uint16(want), naive[want])
		}
		if evals != uint64(len(c.order)) {
			t.Fatalf("%s: %d evals for %d candidates", c.name, evals, len(c.order))
		}
	}
}

func TestScoreTableMatchesNaive(t *testing.T) {
	rng := xrand.New(7)
	kinds := map[string]func(h int) (uint32, uint32){
		"random": func(int) (uint32, uint32) { return rng.Uint32() >> 12, rng.Uint32() >> 12 },
		"sparse": func(int) (uint32, uint32) {
			if rng.Intn(16) != 0 {
				return 0, 0
			}
			return uint32(rng.Intn(50)), uint32(rng.Intn(50))
		},
		"all-zero": func(int) (uint32, uint32) { return 0, 0 },
		// Counts in {0, 1} with many T == NT cells: most formulas tie, so
		// only the first-minimum rule picks the winner.
		"tie-heavy": func(int) (uint32, uint32) {
			v := uint32(rng.Intn(2))
			if rng.Intn(4) == 0 {
				return v, 1 - v
			}
			return v, v
		},
		// Taken exactly where one of the two nibbles is all ones: the
		// all-AND subtrees then score Or and inverted And equally and
		// best, so the exact search's root/inversion order decides.
		"root-tie": func(h int) (uint32, uint32) {
			if (h&15 == 15) != (h>>4 == 15) {
				return 1, 0
			}
			return 0, 0
		},
		"saturated": func(int) (uint32, uint32) {
			switch rng.Intn(3) {
			case 0:
				return 0xFFFFFFFF, 0
			case 1:
				return 0, 0xFFFFFFFF
			}
			return 0xFFFFFFFF, 0xFFFFFFFF
		},
	}
	names := make([]string, 0, len(kinds))
	for name := range kinds {
		names = append(names, name)
	}
	sort.Strings(names)
	st := new(scoreTable)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			var T, NT [256]uint32
			for h := range T {
				T[h], NT[h] = kinds[name](h)
			}
			checkFormulaSearch(t, st, &T, &NT)
		})
	}
}

// TestNibbleMasksDistinct pins down why the subtree encodings are not
// deduplicated: all 64 are distinct truth functions, and none is another's
// complement.
func TestNibbleMasksDistinct(t *testing.T) {
	seen := make(map[uint16]int)
	for e, m := range nibbleMasks {
		if prev, ok := seen[m]; ok {
			t.Fatalf("encodings %d and %d share mask %#04x", prev, e, m)
		}
		seen[m] = e
	}
	for e, m := range nibbleMasks {
		if c, ok := seen[^m]; ok {
			t.Fatalf("encoding %d is the complement of %d", e, c)
		}
	}
}

// FuzzFormulaSearch decodes the input into a histogram pair (little-endian
// uint32 counts, cycled over the input, shifted right by the first byte
// mod 32) and runs the same assertions as TestScoreTableMatchesNaive.
func FuzzFormulaSearch(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{28, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{20, 0x10, 0, 0, 0, 0x10, 0, 0, 0, 0x11})
	st := new(scoreTable)
	f.Fuzz(func(t *testing.T, data []byte) {
		var T, NT [256]uint32
		if len(data) > 0 {
			shift := data[0] % 32
			var w [4]byte
			for i := 0; i < 512; i++ {
				for j := range w {
					w[j] = data[(4*i+j)%len(data)]
				}
				v := binary.LittleEndian.Uint32(w[:]) >> shift
				if i < 256 {
					T[i] = v
				} else {
					NT[i-256] = v
				}
			}
		}
		checkFormulaSearch(t, st, &T, &NT)
	})
}

// benchPairs are the (branch, length) histogram pairs Train searches for
// a fixed mysql profile.
var benchPairs = sync.OnceValue(func() [][2]*[256]uint32 {
	app := workload.DataCenterApp("mysql")
	prof, err := profiler.Collect(func() trace.Stream { return app.Stream(0, 60000) },
		tage.New(tage.DefaultConfig()), profiler.DefaultOptions())
	if err != nil {
		panic(err)
	}
	pcs := make([]uint64, 0, len(prof.Hard))
	for pc := range prof.Hard {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	var pairs [][2]*[256]uint32
	for _, pc := range pcs {
		hp := prof.Hard[pc]
		for li := range hp.T {
			pairs = append(pairs, [2]*[256]uint32{&hp.T[li], &hp.NT[li]})
		}
	}
	return pairs
})

// BenchmarkFormulaSearch times one formula search per op, cycling over a
// fixed profile's (branch, length) pairs, for each candidate set Train
// uses. It must not allocate.
func BenchmarkFormulaSearch(b *testing.B) {
	pairs := benchPairs()
	for _, c := range searchCases() {
		b.Run(c.name, func(b *testing.B) {
			st := new(scoreTable)
			var evals uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				findBooleanFormula(p[0], p[1], c.cs, st, &evals)
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/branch-length")
		})
	}
}
