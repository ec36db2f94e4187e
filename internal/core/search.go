package core

import (
	"math"

	"github.com/whisper-sim/whisper/internal/formula"
	"github.com/whisper-sim/whisper/internal/xrand"
)

// --- Formula search ------------------------------------------------------
//
// A formula's mispredictions on a histogram pair are
//
//	misp(f) = Σ_{¬f(h)} T[h] + Σ_{f(h)} NT[h] = ΣT + Σ_{f(h)} D[h],  D = NT − T.
//
// The complete tree factors at the root: unit 6 combines u4 (units 0, 1,
// 4, a function of the low history nibble lo4 = h&15) with u5 (units 2,
// 3, 5, a function of hi4 = h>>4). Each subtree has 64 encodings, and
// mask[e] is encoding e's 16-entry truth table. For a (lo, hi) pair only
// the sums of D over the four (u4, u5) quadrants matter, and one of them
// is two-dimensional:
//
//	w11[lo][hi] = Σ_{lo4 ∈ mask[lo], hi4 ∈ mask[hi]} D[hi4<<4 | lo4].
//
// The rest follow from the marginals a[lo] (Σ D where u4 = 1), b[hi]
// (where u5 = 1) and all = Σ D: w10 = a − w11, w01 = b − w11,
// w00 = all − a − b + w11. The root op's on-set sum is then
//
//	And: w11   Or: all − w00   Impl: all − w10   Cnimpl: w01
//
// and the inversion bit maps on to all − on. Every sum over a 16-bit mask
// is four lookups into 4-bit subset-sum tables, so one scoreTable costs
// ~40k adds per histogram pair, and any formula's misp is then a handful
// of reads. The randomized search (the paper's Algorithm 1) and the exact
// search both score from it, in integers, with a first-strict-minimum
// tie-break over their own candidate order.

// nibbleMasks[e] is the truth table of the 3-unit subtree with encoding e
// (2 bits per unit: units x, y feed unit z): bit v is its output on the
// 4-bit input v.
var nibbleMasks = func() (m [64]uint16) {
	for e := range m {
		x, y, z := formula.Op(e&3), formula.Op(e>>2&3), formula.Op(e>>4&3)
		for v := 0; v < 16; v++ {
			if z.Apply(x.Apply(v&1 != 0, v&2 != 0), y.Apply(v&4 != 0, v&8 != 0)) {
				m[e] |= 1 << v
			}
		}
	}
	return
}()

// allEncodings lists every subtree encoding, 0..63.
var allEncodings = func() (e []uint8) {
	for i := 0; i < 64; i++ {
		e = append(e, uint8(i))
	}
	return
}()

// part is a formula split at the root: the low subtree encoding (units
// 0, 1, 4 = encoding bits 0-3 and 8-9), the high one (units 2, 3, 5 =
// bits 4-7 and 10-11), and k = root op | inversion<<2 (bits 12-14).
type part struct{ lo, hi, k uint8 }

func split(f formula.Formula) part {
	return part{
		lo: uint8(f&0xF | (f>>8&3)<<4),
		hi: uint8(f>>4&0xF | (f>>10&3)<<4),
		k:  uint8(f >> 12 & 7),
	}
}

func (p part) join() formula.Formula {
	lo, hi := formula.Formula(p.lo), formula.Formula(p.hi)
	return lo&0xF | (hi&0xF)<<4 | (lo>>4)<<8 | (hi>>4)<<10 | formula.Formula(p.k)<<12
}

// rootCoef[k] gives the on-set sum of root/inversion k as a signed
// combination of (all, a, b, w11).
var rootCoef = func() (c [8][4]int64) {
	base := [formula.NumOps][4]int64{
		formula.And:    {0, 0, 0, 1},  // w11
		formula.Or:     {0, 1, 1, -1}, // all − w00
		formula.Impl:   {1, -1, 0, 1}, // all − w10
		formula.Cnimpl: {0, 0, 1, -1}, // w01
	}
	for root, v := range base {
		c[root] = v
		c[root|4] = [4]int64{1 - v[0], -v[1], -v[2], -v[3]}
	}
	return
}()

// subsets holds s[g][m] = Σ_{j ∈ m} v[4g+j] for the four 4-element
// groups of a 16-element vector v.
type subsets [4][16]int64

func (s *subsets) fill(v *[16]int64) {
	for g := range s {
		sg := &s[g]
		sg[0] = 0
		for j := 0; j < 4; j++ {
			x, n := v[4*g+j], 1<<j
			for m := 0; m < n; m++ {
				sg[n+m] = sg[m] + x
			}
		}
	}
}

// sum returns Σ_{i ∈ mask} v[i].
func (s *subsets) sum(mask uint16) int64 {
	return s[0][mask&15] + s[1][mask>>4&15] + s[2][mask>>8&15] + s[3][mask>>12]
}

// scoreTable is the factorized score of every formula against one
// histogram pair. It is reused across branches and lengths; build
// overwrites every entry a search reads.
type scoreTable struct {
	totalT, all int64
	a, b        [64]int64
	w11         [64][64]int64
	rows        [16]subsets // rows[hi4]: subset sums of D[hi4<<4 | ·]
}

// build fills the table for the histogram pair, for the low and high
// subtree encodings los and his (all < 64; the &63 below only drops
// bounds checks).
func (t *scoreTable) build(T, NT *[256]uint32, los, his []uint8) {
	var totalT, all int64
	var rowSum [16]int64
	for hi4 := range rowSum {
		var d [16]int64
		var rs int64
		for lo4 := range d {
			h := hi4<<4 | lo4
			d[lo4] = int64(NT[h]) - int64(T[h])
			totalT += int64(T[h])
			rs += d[lo4]
		}
		t.rows[hi4].fill(&d)
		rowSum[hi4] = rs
		all += rs
	}
	t.totalT, t.all = totalT, all

	var s subsets
	s.fill(&rowSum)
	for _, hi := range his {
		t.b[hi&63] = s.sum(nibbleMasks[hi&63])
	}
	for _, lo := range los {
		m := nibbleMasks[lo&63]
		// col[hi4] = Σ_{lo4 ∈ mask[lo]} D[hi4<<4 | lo4]
		var col [16]int64
		var a int64
		for hi4 := range col {
			col[hi4] = t.rows[hi4].sum(m)
			a += col[hi4]
		}
		t.a[lo&63] = a
		s.fill(&col)
		row := &t.w11[lo&63]
		for _, hi := range his {
			row[hi&63] = s.sum(nibbleMasks[hi&63])
		}
	}
}

// on returns Σ D over the inputs where the formula with parts p is true.
func (t *scoreTable) on(p part) int64 {
	c := &rootCoef[p.k&7]
	lo, hi := p.lo&63, p.hi&63
	return c[0]*t.all + c[1]*t.a[lo] + c[2]*t.b[hi] + c[3]*t.w11[lo][hi]
}

// searchOrder returns the index of the first part in ps with the
// smallest on-set sum, and that sum.
func (t *scoreTable) searchOrder(ps []part) (best int, bestOn int64) {
	bestOn = math.MaxInt64
	for i, p := range ps {
		if on := t.on(p); on < bestOn {
			best, bestOn = i, on
		}
	}
	return best, bestOn
}

// searchExact scans all 2^15 formulas in (lo, hi, root, inv) order and
// returns the first with the smallest on-set sum, and that sum.
func (t *scoreTable) searchExact() (formula.Formula, int64) {
	all := t.all
	bestOn, bestAt := int64(math.MaxInt64), 0
	for lo := 0; lo < 64; lo++ {
		a, row := t.a[lo], &t.w11[lo]
		for hi := 0; hi < 64; hi++ {
			w11, b := row[hi], t.b[hi]
			and, or, impl, cn := w11, a+b-w11, all-a+w11, b-w11
			if m := min(and, all-and, or, all-or, impl, all-impl, cn, all-cn); m < bestOn {
				bestOn, bestAt = m, lo<<6|hi
			}
		}
	}
	// The first (root, inv) of the winning pair that reaches the minimum.
	p := part{lo: uint8(bestAt >> 6), hi: uint8(bestAt & 63)}
	for j := uint8(0); j < 8; j++ {
		p.k = j>>1 | (j&1)<<2 // root j>>1, inversion j&1
		if t.on(p) == bestOn {
			break
		}
	}
	return p.join(), bestOn
}

// candidateSet is the explored formula space. The randomized set is the
// shared Fisher-Yates order truncated to the explore fraction, with each
// formula's parts; the exact set stands for all 2^15 formulas in
// (lo, hi, root, inv) order. los and his list, ascending, the subtree
// encodings the set uses, so the score table is built only for those.
type candidateSet struct {
	exact    bool
	formulas []formula.Formula
	parts    []part
	los, his []uint8
}

// size is the number of formulas the set scores per histogram pair.
func (cs *candidateSet) size() int {
	if cs.exact {
		return formula.NumFormulas
	}
	return len(cs.formulas)
}

// newCandidateSet returns the randomized set that scores fs in order.
func newCandidateSet(fs []formula.Formula) *candidateSet {
	cs := &candidateSet{formulas: fs, parts: make([]part, len(fs))}
	var loUsed, hiUsed [64]bool
	for i, f := range fs {
		p := split(f)
		cs.parts[i] = p
		loUsed[p.lo], hiUsed[p.hi] = true, true
	}
	for e := range loUsed {
		if loUsed[e] {
			cs.los = append(cs.los, uint8(e))
		}
		if hiUsed[e] {
			cs.his = append(cs.his, uint8(e))
		}
	}
	return cs
}

// buildCandidates constructs the explored candidate set. Randomized
// testing takes a single Fisher-Yates permutation of the full encoding
// space, generated once and shared across branches (paper §III-B),
// truncated to the explore fraction. With ExtendedOps disabled, the space
// is first filtered to AND/OR-only, non-inverted trees (ROMBF
// expressiveness). An explore fraction >= 1 with ExtendedOps is the exact
// search over all 2^15 formulas.
func buildCandidates(p Params) *candidateSet {
	if p.ExploreFraction >= 1 && p.ExtendedOps {
		return &candidateSet{exact: true, los: allEncodings, his: allEncodings}
	}
	rng := xrand.New(p.Seed)
	perm := rng.Perm16(formula.NumFormulas)
	var pool []formula.Formula
	if p.ExtendedOps {
		pool = make([]formula.Formula, len(perm))
		for i, enc := range perm {
			pool[i] = formula.Formula(enc)
		}
	} else {
		for _, enc := range perm {
			f := formula.Formula(enc)
			if f.Inverted() {
				continue
			}
			ok := true
			for u := 0; u < formula.Units; u++ {
				if op := f.UnitOp(u); op != formula.And && op != formula.Or {
					ok = false
					break
				}
			}
			if ok {
				pool = append(pool, f)
			}
		}
	}
	n := int(float64(len(pool))*p.ExploreFraction + 0.999999)
	if n < 1 {
		n = 1
	}
	if n > len(pool) {
		n = len(pool)
	}
	return newCandidateSet(pool[:n])
}

// findBooleanFormula is the paper's Algorithm 1: given taken/not-taken
// histogram tables keyed by hashed history, return the first formula of
// cs with the fewest mispredictions, scored through t. evals receives the
// number of formulas scored.
func findBooleanFormula(T, NT *[256]uint32, cs *candidateSet, t *scoreTable, evals *uint64) (formula.Formula, uint64) {
	t.build(T, NT, cs.los, cs.his)
	*evals += uint64(cs.size())
	if cs.exact {
		f, on := t.searchExact()
		return f, uint64(t.totalT + on)
	}
	i, on := t.searchOrder(cs.parts)
	return cs.formulas[i], uint64(t.totalT + on)
}
