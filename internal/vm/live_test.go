package vm_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/vm"
)

// TestLivenessMatchesPathSearch checks the convergence check's live sets
// against a search over every path of the IR: a slot is live at a pc iff
// some path from the pc reads it before redefining it. The search runs
// per slot over IR positions, independently of the bytecode the tables
// are built from; it covers every function of the 11 kernels, of 20
// random programs, of the IR edge cases and of the phi-carrying loop
// module.
func TestLivenessMatchesPathSearch(t *testing.T) {
	mods := map[string]*ir.Module{"loopcall": buildLoopCall(10), "fib": buildFib(5)}
	for _, b := range bench.All() {
		mods[b.Name] = b.MustModule(1)
	}
	for seed := range 20 {
		name := fmt.Sprintf("random%d", seed)
		m, err := lang.Compile(name, bench.RandomProgram(rand.New(rand.NewSource(int64(seed)))))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mods[name] = m
	}
	for _, tc := range edgeCaseModules {
		m, err := ir.Parse(tc.ir)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		mods[tc.name] = m
	}
	pcs := 0
	for name, m := range mods {
		prog, err := vm.Compile(m, vm.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for fi, fn := range m.Funcs {
			pcs += checkLiveness(t, name+"."+fn.Name, prog, fi, fn)
		}
	}
	t.Logf("%d modules, %d pcs", len(mods), pcs)
}

// pathNode is a position of the path search: an instruction, or a block's
// phi group entered from one predecessor.
type pathNode struct {
	pc    int32 // the node's pc; a group entry has its block's first pc
	reads []int
	defs  []int
	succ  []int
}

// checkLiveness compares fn's live sets at every pc execution can pause
// at (not inside a phi group, not at a fell-through trap) with the path
// search, and returns how many pcs it compared.
func checkLiveness(t *testing.T, name string, prog *vm.Program, fi int, fn *ir.Function) int {
	t.Helper()
	nLocals := fn.NumLocals()
	slot := func(v ir.Value) (int, bool) {
		switch x := v.(type) {
		case *ir.Instr:
			return x.LocalID, true
		case *ir.Param:
			return nLocals + x.Index, true
		}
		return 0, false
	}
	blockPC := vm.BlockPCs(prog, fi)
	groupLen := func(b *ir.Block) int {
		n := 0
		for n < len(b.Instrs) && b.Instrs[n].Op == ir.OpPhi {
			n++
		}
		return n
	}
	// Node ids: at[b][i] for instruction i of block b (-1 inside a phi
	// group), entry[b][p] for b's group entered from block p.
	var nodes []pathNode
	at := make([][]int, len(fn.Blocks))
	entry := make([]map[*ir.Block]int, len(fn.Blocks))
	for bi, b := range fn.Blocks {
		at[bi] = make([]int, len(b.Instrs))
		n := groupLen(b)
		for i := range b.Instrs {
			at[bi][i] = -1
			if i >= n {
				at[bi][i] = len(nodes)
				nodes = append(nodes, pathNode{pc: blockPC[bi] + int32(2*i)})
			}
		}
		if n == 0 {
			continue
		}
		entry[bi] = map[*ir.Block]int{}
		for _, p := range fn.Blocks {
			if term := p.Terminator(); term != nil && slices.Contains(term.Blocks, b) {
				if _, ok := entry[bi][p]; !ok {
					entry[bi][p] = len(nodes)
					nodes = append(nodes, pathNode{pc: blockPC[bi]})
				}
			}
		}
	}
	enter := func(b, from *ir.Block) int {
		if e := entry[b.Index]; e != nil {
			return e[from]
		}
		return at[b.Index][0]
	}
	for bi, b := range fn.Blocks {
		n := groupLen(b)
		for i := n; i < len(b.Instrs); i++ {
			in, nd := b.Instrs[i], &nodes[at[bi][i]]
			if in.Op == ir.OpPhi {
				continue // a phi after the group traps: no reads, no successors
			}
			for _, a := range in.Args {
				if s, ok := slot(a); ok {
					nd.reads = append(nd.reads, s)
				}
			}
			if !in.Type().IsVoid() {
				nd.defs = []int{in.LocalID}
			}
			switch in.Op {
			case ir.OpBr, ir.OpCondBr:
				for _, to := range in.Blocks {
					nd.succ = append(nd.succ, enter(to, b))
				}
			case ir.OpRet, ir.OpAbort, ir.OpDetect:
			default:
				if i+1 < len(b.Instrs) {
					nd.succ = []int{at[bi][i+1]}
				}
			}
		}
		for from, id := range entry[bi] {
			nd := &nodes[id]
			complete := true
			for _, phi := range b.Instrs[:n] {
				k := slices.Index(phi.PhiIn, from)
				if k < 0 {
					complete = false // the walker stops at this phi
					break
				}
				if s, ok := slot(phi.Args[k]); ok {
					nd.reads = append(nd.reads, s)
				}
			}
			if !complete {
				continue
			}
			for _, phi := range b.Instrs[:n] {
				nd.defs = append(nd.defs, phi.LocalID)
			}
			if n < len(b.Instrs) {
				nd.succ = []int{at[bi][n]}
			}
		}
	}

	// want[pc] collects, slot by slot, the pcs whose node reaches a read
	// before a redefinition; a group's pc unions its entries.
	want := map[int32][]uint16{}
	for _, nd := range nodes {
		want[nd.pc] = want[nd.pc][:0:0]
	}
	live := make([]bool, len(nodes))
	for s := range nLocals + len(fn.Params) {
		clear(live)
		for changed := true; changed; {
			changed = false
			for id := len(nodes) - 1; id >= 0; id-- {
				if live[id] {
					continue
				}
				nd := &nodes[id]
				l := slices.Contains(nd.reads, s)
				if !l && !slices.Contains(nd.defs, s) {
					for _, x := range nd.succ {
						l = l || live[x]
					}
				}
				if l {
					live[id], changed = true, true
				}
			}
		}
		for id, nd := range nodes {
			if live[id] {
				if w := want[nd.pc]; len(w) == 0 || w[len(w)-1] != uint16(s) {
					want[nd.pc] = append(w, uint16(s))
				}
			}
		}
	}
	for pc, w := range want {
		if got := vm.LiveSlots(prog, fi, pc); !slices.Equal(got, w) {
			t.Errorf("%s pc %d: live slots %v, path search %v", name, pc, got, w)
		}
	}
	return len(want)
}
