package vm

import (
	"math/bits"
	"slices"
)

// Liveness of locals and parameters at every pc, for the convergence
// check: two frames at the same pc with the same continuation have the
// same future when their live slots agree, because a dead slot is written
// before anything reads it again.
//
// A slot is live at a pc when some path through the function's bytecode
// from that pc reads it before writing it. A non-phi instruction reads its
// operand slots, then writes its result; a call writes its result when the
// callee returns. A phi group reads, for the edge it is entered by, the
// operand slots the walker takes (the first incoming entry per phi, up to a
// phi with none, where the run stops), then writes every phi; the set at a
// group's pc is the union over its incoming edges. Branches lead to their
// targets along that edge; returns, traps, abort and detect end the path.
//
// The sets are flat per function: the slots live at pc are
// live.slots[live.off[pc/2]:live.off[pc/2+1]], in ascending order.
type liveTab struct {
	off   []int32
	slots []uint16
}

// liveSet is a bitset over a function's local and parameter slots.
type liveSet []uint64

func (s liveSet) add(slot int) { s[slot>>6] |= 1 << uint(slot&63) }

func (s liveSet) del(slot int) { s[slot>>6] &^= 1 << uint(slot&63) }

func (s liveSet) or(t liveSet) {
	for i := range s {
		s[i] |= t[i]
	}
}

// ensureLiveness builds every function's liveness table once per program.
// Checkpoints calls it: a capture keeps only the live registers, and the
// convergence check compares only those, so programs that never
// checkpoint (every analysis) never pay for the tables.
func (p *Program) ensureLiveness() {
	p.liveOnce.Do(func() {
		for _, fc := range p.fns {
			fc.live = newLiveness(fc).table()
		}
	})
}

// liveness computes one function's live sets.
type liveness struct {
	fc      *fnCode
	words   int
	blocks  []liveBlock
	blockAt map[int32]int // block index by first pc
}

// liveBlock is one block's pc range, its leading phi group if any, and the
// slots live after the group (at its first pc when it has none).
type liveBlock struct {
	lo, hi int32 // pcs [lo, hi)
	body   int32 // first pc after the phi group
	group  *phiGroup
	in     liveSet
}

func newLiveness(fc *fnCode) *liveness {
	lv := &liveness{
		fc:      fc,
		words:   (fc.constBase + 63) / 64,
		blocks:  make([]liveBlock, len(fc.blockPC)),
		blockAt: make(map[int32]int, len(fc.blockPC)),
	}
	for bi, lo := range fc.blockPC {
		hi := int32(len(fc.code))
		if bi+1 < len(fc.blockPC) {
			hi = fc.blockPC[bi+1]
		}
		b := liveBlock{lo: lo, hi: hi, body: lo, in: lv.set()}
		if vop(fc.code[lo]>>56) == vopPhiGroup {
			b.group = &fc.phiTab[uint32(fc.code[lo+1])]
			b.body = b.group.endPC
		}
		lv.blocks[bi] = b
		lv.blockAt[lo] = bi
	}
	return lv
}

func (lv *liveness) set() liveSet { return make(liveSet, lv.words) }

// readSlots adds the local and parameter slots among ss to s.
func (lv *liveness) readSlots(s liveSet, ss []uint16) {
	for _, x := range ss {
		if int(x) < lv.fc.constBase {
			s.add(int(x))
		}
	}
}

// edge adds to s the slots live on entering the block at pc from block
// from: the group's reads on that edge and what its body needs beyond the
// phis, or the body's live set when the block has no group.
func (lv *liveness) edge(s liveSet, from int, pc int32) {
	b := &lv.blocks[lv.blockAt[pc]]
	g := b.group
	if g == nil {
		s.or(b.in)
		return
	}
	ei, ok := g.edgeOf[lv.fc.fn.Blocks[from]]
	if !ok {
		return // entered by no recorded edge: the group stops the run
	}
	e := &g.edges[ei]
	lv.readSlots(s, e.src)
	if e.fatalAt >= 0 {
		return
	}
	after := lv.set()
	copy(after, b.in)
	for _, in := range g.phis {
		after.del(in.LocalID)
	}
	s.or(after)
}

// scan walks block bi's body backward from its end, calling visit with
// the live set at each pc (visit must not keep it), and returns the set
// at the body's first pc.
func (lv *liveness) scan(bi int, visit func(pc int32, s liveSet)) liveSet {
	fc := lv.fc
	b := &lv.blocks[bi]
	cur := lv.set()
	for pc := b.hi - 2; pc >= b.body; pc -= 2 {
		w0, w1 := fc.code[pc], fc.code[pc+1]
		op := vop(w0 >> 56)
		src := int32(uint32(w1 >> 32))
		aux := uint32(w1)
		switch op {
		case vopTrap, vopAbort, vopDetect:
			clear(cur)
		case vopRet:
			clear(cur)
			lv.readSlots(cur, fc.meta[src].argSlots)
		case vopBr:
			clear(cur)
			lv.edge(cur, bi, fc.brTab[aux].pc)
		case vopCondBr:
			t := &fc.condTab[aux]
			clear(cur)
			lv.edge(cur, bi, t.tpc)
			lv.edge(cur, bi, t.fpc)
			lv.readSlots(cur, fc.meta[src].argSlots)
		default:
			if in := fc.instrs[src]; !in.Type().IsVoid() {
				cur.del(in.LocalID)
			}
			lv.readSlots(cur, fc.meta[src].argSlots)
		}
		if visit != nil {
			visit(pc, cur)
		}
	}
	return cur
}

// table iterates the block sets to a fixpoint and flattens the per-pc
// sets.
func (lv *liveness) table() liveTab {
	for changed := true; changed; {
		changed = false
		for bi := len(lv.blocks) - 1; bi >= 0; bi-- {
			if s, in := lv.scan(bi, nil), lv.blocks[bi].in; !slices.Equal(s, in) {
				copy(in, s)
				changed = true
			}
		}
	}
	fc := lv.fc
	npc := len(fc.code) / 2
	all := make(liveSet, npc*lv.words)
	keep := func(pc int32, s liveSet) { copy(all[int(pc/2)*lv.words:], s) }
	for bi := range lv.blocks {
		b := &lv.blocks[bi]
		lv.scan(bi, keep)
		if b.group != nil {
			u := lv.set()
			for from := range b.group.edgeOf {
				lv.edge(u, from.Index, b.lo)
			}
			keep(b.lo, u)
		}
	}
	n := 0
	for _, x := range all {
		n += bits.OnesCount64(x)
	}
	t := liveTab{off: make([]int32, npc+1), slots: make([]uint16, 0, n)}
	for i := 0; i < npc; i++ {
		for w, x := range all[i*lv.words : (i+1)*lv.words] {
			for x != 0 {
				t.slots = append(t.slots, uint16(w*64+bits.TrailingZeros64(x)))
				x &= x - 1
			}
		}
		t.off[i+1] = int32(len(t.slots))
	}
	return t
}

// at returns the slots live at pc.
func (t *liveTab) at(pc int32) []uint16 {
	i := pc >> 1
	return t.slots[t.off[i]:t.off[i+1]]
}
