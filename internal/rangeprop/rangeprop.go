// Package rangeprop implements the paper's propagation model (§III-C,
// Algorithms 1 and 2, Table III): starting from every load/store in the ACE
// graph, it propagates the crash model's valid-address range backward along
// the slice of the address computation, inverting each instruction's
// semantics to derive, per operand use, the range of values that keep the
// eventual memory access in bounds — and therefore the set of bits whose
// flip would crash the program (the CRASHING_BIT_LIST).
package rangeprop

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/crash"
	"repro/internal/ddg"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/trace"
)

// DefaultMaxDepth bounds how many def-use hops a single backward-slice walk
// follows. Address slices are shallow (index arithmetic plus spills through
// the stack); deep value chains re-enter through nearer accesses anyway, so
// a modest bound preserves accuracy while keeping the analysis near-linear
// — the engineering fix the paper's scalability discussion (§VI-A) calls
// for.
const DefaultMaxDepth = 24

// Config controls the propagation analysis.
type Config struct {
	// MaxDepth bounds the per-access backward walk; zero means
	// DefaultMaxDepth, negative means unbounded.
	MaxDepth int
	// ExactAddress uses the exact multi-VMA oracle for the bits of the
	// direct address operand instead of the single-interval bound
	// (ablation: the paper's Algorithm 2 is interval-only).
	ExactAddress bool
	// Model is the crash model; nil means crash.NewModel().
	Model *crash.Model
	// Parallel shards the per-access backward walks over this many worker
	// goroutines — the "threads can be assigned to one backward slice
	// each" parallelism of the paper's §VI-A. Zero or one runs serially.
	// Results are identical either way (crash masks merge by union).
	Parallel int
}

// Result is the computed CRASHING_BIT_LIST plus aggregate counts. Its
// masks are dense arrays over the trace's events: operand op of event ev
// owns use slot opBase[ev]+op — the slot of its entry in the trace's Ops
// column — and every event owns one def slot. A zero mask means no bit
// of that use or register is predicted to crash.
type Result struct {
	// opBase is the trace's OpBase column, shared read-only.
	opBase []int
	// use holds, per dynamic operand use, the mask of bits predicted to
	// crash the program if flipped at that use.
	use []uint64
	// def aggregates use at register granularity (filled by Finalize): for
	// each value-defining event, the union of the crash masks of all its
	// uses. A register bit is crash-causing if corrupting it makes any
	// consumer access fault — the CRASHING_BIT_LIST as the recall study
	// reads it.
	def []uint64
	// CrashBitCount is the number of (register, bit) pairs predicted to
	// crash, at def granularity — the quantity subtracted from the ACE
	// bits in Eq. 2.
	CrashBitCount int64
	// UseCrashBitCount is the finer-grained (use, bit) tally.
	UseCrashBitCount int64
	// AccessesAnalyzed counts the ACE-graph loads/stores that seeded
	// walks.
	AccessesAnalyzed int64
}

// NewResult returns an empty result laid out for tr's operand uses: no
// mask set, every count zero.
func NewResult(tr *trace.Trace) *Result {
	return &Result{opBase: tr.OpBase, use: make([]uint64, len(tr.Ops))}
}

// slot returns the use slot of u, or -1 when u is not an operand use of
// the trace.
func (r *Result) slot(u trace.Use) int {
	if u.Event < 0 || u.Event >= int64(len(r.opBase)-1) || u.Op < 0 {
		return -1
	}
	s := r.opBase[u.Event] + u.Op
	if s >= r.opBase[u.Event+1] {
		return -1
	}
	return s
}

// UseMask returns the predicted crash-bit mask of use u — zero when no bit
// of it is on the CRASHING_BIT_LIST.
func (r *Result) UseMask(u trace.Use) uint64 {
	if s := r.slot(u); s >= 0 {
		return r.use[s]
	}
	return 0
}

// AddUseMask unions mask into the crash mask of use u, which must be an
// operand use of the trace: its Op below the event's trace.NumOperands.
func (r *Result) AddUseMask(u trace.Use, mask uint64) {
	s := r.slot(u)
	if s < 0 {
		panic(fmt.Sprintf("rangeprop: %v is not an operand use of the trace", u))
	}
	r.use[s] |= mask
}

// Predicted reports whether flipping the given bit at the given use is
// predicted to crash.
func (r *Result) Predicted(u trace.Use, bit int) bool {
	return r.UseMask(u)&(1<<uint(bit)) != 0
}

// PredictedDef reports whether flipping the given bit of the register
// defined at event ev is predicted to crash.
func (r *Result) PredictedDef(ev int64, bit int) bool {
	return r.DefMask(ev)&(1<<uint(bit)) != 0
}

// PredictedDefMask reports whether a multi-bit fault (XOR mask) in the
// register defined at event ev is predicted to crash: true when any
// flipped bit is crash-causing. (Two flips cancelling each other inside a
// range is possible in principle but vanishingly rare.)
func (r *Result) PredictedDefMask(ev int64, mask uint64) bool {
	return r.DefMask(ev)&mask != 0
}

// DefMask returns the full predicted crash-bit mask of the register
// defined at event ev — zero when no bit of that register is on the
// CRASHING_BIT_LIST. This is the per-bit export the attribution ledger
// joins against FI ground truth.
func (r *Result) DefMask(ev int64) uint64 {
	if ev < 0 || ev >= int64(len(r.def)) {
		return 0
	}
	return r.def[ev]
}

// EachUse calls fn for every use with a non-zero crash mask, in event
// order and, within an event, in operand order.
func (r *Result) EachUse(fn func(u trace.Use, mask uint64)) {
	ev := 0
	for s, m := range r.use {
		if m == 0 {
			continue
		}
		for r.opBase[ev+1] <= s {
			ev++
		}
		fn(trace.Use{Event: int64(ev), Op: s - r.opBase[ev]}, m)
	}
}

// EachDef calls fn for every register with a non-zero crash mask, in event
// order. It sees nothing before Finalize.
func (r *Result) EachDef(fn func(ev int64, mask uint64)) {
	for ev, m := range r.def {
		if m != 0 {
			fn(int64(ev), m)
		}
	}
}

// Seeds returns the ACE-graph memory accesses of the trace — the walk
// seeds of ITERATE_OVER_ACE_GRAPH — in event order.
func Seeds(tr *trace.Trace, aceMask []bool) []int64 {
	n := 0
	for i, a := range tr.Acc {
		if a >= 0 && aceMask[i] {
			n++
		}
	}
	accesses := make([]int64, 0, n)
	for i, a := range tr.Acc {
		if a >= 0 && aceMask[i] {
			accesses = append(accesses, int64(i))
		}
	}
	return accesses
}

// defaultModel is the crash model of a Config without one. Models are
// only read, so every analysis shares it.
var defaultModel = crash.NewModel()

// withDefaults fills cfg's defaults and returns it with the effective
// per-walk depth bound (negative: unbounded).
func withDefaults(cfg Config) (Config, int) {
	if cfg.Model == nil {
		cfg.Model = defaultModel
	}
	maxDepth := cfg.MaxDepth
	if maxDepth == 0 {
		maxDepth = DefaultMaxDepth
	}
	return cfg, maxDepth
}

// Analyze runs ITERATE_OVER_ACE_GRAPH: for every load/store event inside
// aceMask it obtains the crash-model boundary and propagates it along the
// backward slice of the address.
func Analyze(tr *trace.Trace, g *ddg.Graph, aceMask []bool, cfg Config) *Result {
	cfg, maxDepth := withDefaults(cfg)
	tab := NewOperandTable(tr)
	res := NewResult(tr)
	if cfg.Parallel <= 1 {
		w := newWalker(tr, tab, cfg, maxDepth, res, nil)
		for i, a := range tr.Acc {
			if a >= 0 && aceMask[i] {
				w.access(int64(i))
			}
		}
	} else {
		// Shard walks across workers, each with its own scratch and masks,
		// then merge by union — identical to the serial result.
		accesses := Seeds(tr, aceMask)
		parts := make([]*walker, max(1, min(cfg.Parallel, len(accesses))))
		var wg sync.WaitGroup
		next := make(chan int64)
		for i := range parts {
			part := res
			if i > 0 {
				part = NewResult(tr)
			}
			w := newWalker(tr, tab, cfg, maxDepth, part, nil)
			parts[i] = w
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ev := range next {
					w.access(ev)
				}
			}()
		}
		for _, ev := range accesses {
			next <- ev
		}
		close(next)
		wg.Wait()
		for _, w := range parts[1:] {
			res.AccessesAnalyzed += w.res.AccessesAnalyzed
			for s, m := range w.res.use {
				res.use[s] |= m
			}
		}
	}
	res.Finalize(tr)
	if r := obs.Default(); r != nil {
		r.Counter("epvf_rangeprop_analyses_total").Inc()
		r.Counter("epvf_rangeprop_accesses_total").Add(res.AccessesAnalyzed)
		r.Counter("epvf_rangeprop_crash_bits_total").Add(res.CrashBitCount)
	}
	return res
}

// AnalyzeSeeds runs the boundary check and backward walk for the given
// seed accesses only, serially, and returns the raw per-use crash masks
// (Finalize has not been called: the def masks and the counts are not yet
// populated). Seed subsets are how the incremental layer (internal/inc)
// sections the model: per-seed walks are independent and their masks merge
// by union, so a whole-trace Analyze equals the union of AnalyzeSeeds over
// any partition of its seeds. tab is tr's operand table, which every
// AnalyzeSeeds call over the trace may share.
//
// touch, when non-nil, is invoked with the index of every event whose
// content the walks read — the seeds themselves plus every event reached
// along the backward slices. The incremental layer records this footprint
// to know which program sections a cached walk result depends on. cfg
// defaulting matches Analyze (nil Model, zero MaxDepth).
func AnalyzeSeeds(tr *trace.Trace, tab OperandTable, cfg Config, seeds []int64, touch func(ev int64)) *Result {
	cfg, maxDepth := withDefaults(cfg)
	res := NewResult(tr)
	w := newWalker(tr, tab, cfg, maxDepth, res, touch)
	for _, ev := range seeds {
		w.access(ev)
	}
	return res
}

// Finalize aggregates the per-use crash masks into the def-granular view
// (the union of every use's mask at its defining event) and the two bit
// tallies. Call it exactly once, after every use mask is in place.
func (r *Result) Finalize(tr *trace.Trace) {
	r.def = make([]uint64, tr.NumEvents())
	// Use slots are the trace's operand slots, so each mask's def is the
	// OpDefs entry at the same index.
	for s, m := range r.use {
		if m == 0 {
			continue
		}
		r.UseCrashBitCount += int64(crash.PopCount(m))
		if d := tr.OpDefs[s]; d != trace.NoDef {
			r.def[d] |= m
		}
	}
	for _, m := range r.def {
		r.CrashBitCount += int64(crash.PopCount(m))
	}
}

// walker runs the backward walks of one Analyze worker or AnalyzeSeeds
// call into res, reusing its visited stamps and worklist across every
// access it walks.
type walker struct {
	tr       *trace.Trace
	rows     []instrOps
	cfg      Config
	maxDepth int
	res      *Result
	touch    func(ev int64)
	// visited[def] == epoch marks def as already expanded by the current
	// access's walk.
	visited []uint32
	epoch   uint32
	work    []item
}

func newWalker(tr *trace.Trace, tab OperandTable, cfg Config, maxDepth int, res *Result, touch func(ev int64)) *walker {
	return &walker{
		tr: tr, rows: tab.rows, cfg: cfg, maxDepth: maxDepth, res: res, touch: touch,
		visited: make([]uint32, tr.NumEvents()),
		work:    make([]item, 0, 64),
	}
}

// access runs the boundary check and backward walk for one ACE-graph
// memory access.
func (w *walker) access(ev int64) {
	bound, ok := w.cfg.Model.Boundary(w.tr, ev)
	if !ok {
		// The boundary itself read the seed event; a cached section must
		// still know it depends on it.
		if w.touch != nil {
			w.touch(ev)
		}
		return
	}
	w.res.AccessesAnalyzed++
	w.crashCalc(ev, int(w.rows[w.tr.InstrID[ev]].ptrOp), bound)
}

// item is one worklist entry: operand use (Ev, Op) whose value must remain
// within R for the seeding access not to fault.
type item struct {
	ev    int64
	op    int
	r     crash.Bound
	depth int
	// direct marks the seeding address use, for the exact-oracle mode.
	direct bool
}

// crashCalc implements CRASH_CALC/GET_RANGE_FOR_CRASH_BITS for one memory
// access: a worklist walk over the backward slice of its address operand.
// touch (optional) receives the index of every event whose recorded content
// the walk reads: each processed worklist item and each def handed to
// invert (invert inspects the def event even when it yields no items).
func (w *walker) crashCalc(accessEv int64, ptrOp int, bound crash.Bound) {
	w.epoch++
	if w.epoch == 0 {
		// The stamps wrapped around: forget every earlier walk's marks.
		clear(w.visited)
		w.epoch = 1
	}
	tr, res, touch := w.tr, w.res, w.touch
	work := append(w.work[:0], item{ev: accessEv, op: ptrOp, r: bound, direct: true})
	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]

		if touch != nil {
			touch(it.ev)
		}
		row := &w.rows[tr.InstrID[it.ev]]
		slot := tr.OpBase[it.ev] + it.op
		if row.inj&(1<<it.op) != 0 {
			v, width := tr.Ops[slot], int(row.width[it.op])
			var mask uint64
			if it.direct && w.cfg.ExactAddress {
				mask = w.cfg.Model.MaskExact(tr, it.ev, v, width)
			} else {
				mask = crash.MaskFromBound(v, width, it.r)
			}
			if mask != 0 {
				res.use[slot] |= mask
			}
		}

		def := tr.OpDefs[slot]
		if def == trace.NoDef || w.visited[def] == w.epoch {
			continue
		}
		if w.maxDepth > 0 && it.depth >= w.maxDepth {
			continue
		}
		w.visited[def] = w.epoch
		if touch != nil {
			touch(def)
		}
		work = invert(work, tr, &w.rows[tr.InstrID[def]], def, it.r, it.depth+1)
	}
	w.work = work
}

// invert applies Table III: given that the value produced by event def (of
// the instruction with operand row in) must stay within r, derive ranges
// for def's own operand uses and append them, at the given walk depth, to
// work.
func invert(work []item, tr *trace.Trace, in *instrOps, def int64, r crash.Bound, depth int) []item {
	ops := tr.OpsOf(def)
	mk := func(op int, b crash.Bound) item { return item{ev: def, op: op, r: b, depth: depth} }

	signedOp := func(op int) int64 {
		return ir.SignExtend(ops[op], int(in.width[op]))
	}

	switch in.op {
	case ir.OpAdd:
		// dest = op0 + op1: op_i within [lo - other, hi - other].
		return append(work,
			mk(0, shift(r, -signedOp(1))),
			mk(1, shift(r, -signedOp(0))),
		)
	case ir.OpSub:
		// dest = op0 - op1.
		return append(work,
			mk(0, shift(r, signedOp(1))),
			mk(1, crash.Bound{Lo: satSub(signedOp(0), r.Hi), Hi: satSub(signedOp(0), r.Lo)}),
		)
	case ir.OpMul:
		if b := divRange(r, signedOp(1)); !b.IsUnconstrained() {
			work = append(work, mk(0, b))
		}
		if b := divRange(r, signedOp(0)); !b.IsUnconstrained() {
			work = append(work, mk(1, b))
		}
		return work
	case ir.OpSDiv, ir.OpUDiv:
		// dest = op0 / c (truncating). Invertible for positive c and
		// non-negative ranges: op0 within [lo*c, hi*c + c - 1].
		c := signedOp(1)
		if c > 0 && r.Lo >= 0 {
			return append(work, mk(0, crash.Bound{
				Lo: satMul(r.Lo, c),
				Hi: satAdd(satMul(r.Hi, c), c-1),
			}))
		}
		return work
	case ir.OpShl:
		// dest = op0 * 2^k.
		k := signedOp(1)
		if k >= 0 && k < 63 {
			if b := divRange(r, int64(1)<<uint(k)); !b.IsUnconstrained() {
				return append(work, mk(0, b))
			}
		}
		return work
	case ir.OpGEP:
		// dest = base + stride*idx.
		stride := in.stride
		base := signedOp(0)
		idx := signedOp(1)
		work = append(work, mk(0, shift(r, -satMul(stride, idx))))
		if stride > 0 {
			lo := ceilDiv(satSub(r.Lo, base), stride)
			hi := floorDiv(satSub(r.Hi, base), stride)
			work = append(work, mk(1, crash.Bound{Lo: lo, Hi: hi}))
		}
		return work
	case ir.OpBitcast, ir.OpPtrToInt, ir.OpIntToPtr:
		return append(work, mk(0, r))
	case ir.OpZExt:
		w := int(in.width[0])
		return append(work, mk(0, intersect(r, crash.Bound{Lo: 0, Hi: maxOfWidthU(w)})))
	case ir.OpSExt:
		return append(work, mk(0, intersect(r, widthBound(int(in.width[0])))))
	case ir.OpLoad:
		// Value identity through memory: the loaded value equals the value
		// operand of the producing store. (The store's own address operand
		// is seeded separately by its own boundary check.)
		if md := tr.MemDefOf(def); md != trace.NoDef {
			return append(work, item{ev: md, op: 0, r: r, depth: depth})
		}
		return work
	case ir.OpPhi:
		return append(work, mk(0, r))
	case ir.OpSelect:
		// The chosen arm carried the value; determine it from the recorded
		// condition.
		if ops[0]&1 != 0 {
			return append(work, mk(1, r))
		}
		return append(work, mk(2, r))
	default:
		// srem/urem, bitwise logic, shifts right, float ops, calls:
		// not invertible to an interval (Table III stops here); the walk
		// terminates conservatively (no crash bits claimed upstream).
		return work
	}
}

// shift translates a bound by delta with saturation.
func shift(r crash.Bound, delta int64) crash.Bound {
	return crash.Bound{Lo: satAdd(r.Lo, delta), Hi: satAdd(r.Hi, delta)}
}

// divRange inverts dest = c * op: the range of op keeping c*op within r.
// Returns Unconstrained when not invertible (c == 0).
func divRange(r crash.Bound, c int64) crash.Bound {
	switch {
	case c > 0:
		return crash.Bound{Lo: ceilDiv(r.Lo, c), Hi: floorDiv(r.Hi, c)}
	case c < 0:
		return crash.Bound{Lo: ceilDiv(r.Hi, c), Hi: floorDiv(r.Lo, c)}
	default:
		return crash.Unconstrained
	}
}

func intersect(a, b crash.Bound) crash.Bound {
	out := a
	if b.Lo > out.Lo {
		out.Lo = b.Lo
	}
	if b.Hi < out.Hi {
		out.Hi = b.Hi
	}
	return out
}

// widthBound returns the representable signed range of the given width.
func widthBound(w int) crash.Bound {
	if w >= 64 {
		return crash.Unconstrained
	}
	return crash.Bound{Lo: -(int64(1) << uint(w-1)), Hi: int64(1)<<uint(w-1) - 1}
}

// maxOfWidthU returns the maximum unsigned value of the given width as an
// int64 (saturated).
func maxOfWidthU(w int) int64 {
	if w >= 63 {
		return math.MaxInt64
	}
	return int64(1)<<uint(w) - 1
}

func satAdd(a, b int64) int64 {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		if a > 0 {
			return math.MaxInt64
		}
		return math.MinInt64
	}
	return s
}

func satSub(a, b int64) int64 {
	if b == math.MinInt64 {
		if a >= 0 {
			return math.MaxInt64
		}
		return satAdd(a+1, math.MaxInt64)
	}
	return satAdd(a, -b)
}

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	p := a * b
	if p/b != a {
		if (a > 0) == (b > 0) {
			return math.MaxInt64
		}
		return math.MinInt64
	}
	return p
}

// floorDiv divides rounding toward negative infinity.
func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

// ceilDiv divides rounding toward positive infinity.
func ceilDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) == (b < 0)) {
		q++
	}
	return q
}
