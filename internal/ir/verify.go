package ir

import (
	"errors"
	"fmt"
	"math"
)

// ErrInvalidModule is wrapped by every error returned from Verify.
var ErrInvalidModule = errors.New("invalid IR module")

// Verify checks structural and type validity of the module: every block is
// terminated, operand counts and types match each opcode's contract, phi
// nodes cover exactly the predecessors of their block, every SSA value use
// is dominated by its definition, and call targets exist within the module.
// It returns the first violation found.
func Verify(m *Module) error {
	if err := verify(m); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidModule, err)
	}
	return nil
}

func verify(m *Module) error {
	seenGlobals := make(map[string]bool, len(m.Globals))
	for _, g := range m.Globals {
		if g.Name == "" {
			return errors.New("unnamed global")
		}
		if seenGlobals[g.Name] {
			return fmt.Errorf("duplicate global @%s", g.Name)
		}
		seenGlobals[g.Name] = true
		if g.Count < 1 {
			return fmt.Errorf("global @%s has count %d", g.Name, g.Count)
		}
		if err := checkSized(g.Elem); err != nil {
			return fmt.Errorf("global @%s: %v", g.Name, err)
		}
		if err := checkLen(g.Count, g.Elem); err != nil {
			return fmt.Errorf("global @%s: %v", g.Name, err)
		}
		if len(g.Init) > g.Count {
			return fmt.Errorf("global @%s has %d initializers for %d elements", g.Name, len(g.Init), g.Count)
		}
	}
	seenFuncs := make(map[string]bool, len(m.Funcs))
	for _, f := range m.Funcs {
		if seenFuncs[f.Name] {
			return fmt.Errorf("duplicate function @%s", f.Name)
		}
		seenFuncs[f.Name] = true
		if err := verifyFunc(m, f); err != nil {
			return fmt.Errorf("function @%s: %v", f.Name, err)
		}
	}
	return nil
}

func verifyFunc(m *Module, f *Function) error {
	if len(f.Blocks) == 0 {
		return errors.New("no blocks")
	}
	blockSet := make(map[*Block]bool, len(f.Blocks))
	for _, b := range f.Blocks {
		blockSet[b] = true
	}
	preds := predecessors(f)
	dom := Dominators(f)

	var frame int64 // bytes of every alloca so far
	for _, b := range f.Blocks {
		if len(b.Instrs) == 0 {
			return fmt.Errorf("block %s is empty", b.Ident())
		}
		if b.Terminator() == nil {
			return fmt.Errorf("block %s lacks a terminator", b.Ident())
		}
		for ii, in := range b.Instrs {
			isLast := ii == len(b.Instrs)-1
			if in.Op.IsTerminator() != isLast {
				return fmt.Errorf("block %s: terminator %s not in final position", b.Ident(), in.Op)
			}
			if in.Op == OpPhi && ii > 0 && b.Instrs[ii-1].Op != OpPhi {
				return fmt.Errorf("block %s: phi %s not grouped at block start", b.Ident(), in.Ident())
			}
			for _, t := range in.Blocks {
				if !blockSet[t] {
					return fmt.Errorf("%s targets block %s outside function", in.Op, t.Ident())
				}
			}
			if err := verifyInstr(m, f, in); err != nil {
				return fmt.Errorf("block %s: %s: %v", b.Ident(), in.Op, err)
			}
			if in.Op == OpAlloca {
				n := in.Elem.Size()
				if n > math.MaxInt64-frame {
					return fmt.Errorf("block %s: allocas overflow an int64 frame size", b.Ident())
				}
				frame += n
			}
			if in.Op == OpPhi {
				if err := verifyPhi(in, preds[b]); err != nil {
					return fmt.Errorf("block %s: %v", b.Ident(), err)
				}
			}
		}
	}
	return verifyDominance(f, dom, preds)
}

func verifyInstr(m *Module, f *Function, in *Instr) error {
	argc := func(n int) error {
		if len(in.Args) != n {
			return fmt.Errorf("want %d operands, have %d", n, len(in.Args))
		}
		return nil
	}
	switch {
	case in.Op.IsIntArith():
		if err := argc(2); err != nil {
			return err
		}
		if !in.Args[0].Type().IsInt() || !in.Args[1].Type().IsInt() {
			return fmt.Errorf("integer op on %s, %s", in.Args[0].Type(), in.Args[1].Type())
		}
		if !in.Args[0].Type().Equal(in.Args[1].Type()) || !in.Ty.Equal(in.Args[0].Type()) {
			return fmt.Errorf("operand/result type mismatch: %s %s -> %s",
				in.Args[0].Type(), in.Args[1].Type(), in.Ty)
		}
	case in.Op.IsFloatArith():
		if err := argc(2); err != nil {
			return err
		}
		if !in.Args[0].Type().IsFloat() || !in.Args[0].Type().Equal(in.Args[1].Type()) || !in.Ty.Equal(in.Args[0].Type()) {
			return fmt.Errorf("float op type mismatch: %s %s -> %s",
				in.Args[0].Type(), in.Args[1].Type(), in.Ty)
		}
	case in.Op == OpICmp:
		if err := argc(2); err != nil {
			return err
		}
		at := in.Args[0].Type()
		if !at.IsInt() && !at.IsPtr() {
			return fmt.Errorf("icmp on %s", at)
		}
		if !at.Equal(in.Args[1].Type()) || !in.Ty.Equal(I1) {
			return errors.New("icmp type mismatch")
		}
		if in.Pred < IEQ || in.Pred > IUGE {
			return fmt.Errorf("icmp with predicate %s", in.Pred)
		}
	case in.Op == OpFCmp:
		if err := argc(2); err != nil {
			return err
		}
		if !in.Args[0].Type().IsFloat() || !in.Args[0].Type().Equal(in.Args[1].Type()) || !in.Ty.Equal(I1) {
			return errors.New("fcmp type mismatch")
		}
		if in.Pred < FOEQ || in.Pred > FOGE {
			return fmt.Errorf("fcmp with predicate %s", in.Pred)
		}
	case in.Op.IsConversion():
		if err := argc(1); err != nil {
			return err
		}
		return verifyConversion(in)
	case in.Op == OpAlloca:
		if err := argc(0); err != nil {
			return err
		}
		if !in.Ty.IsPtr() || in.Elem == nil {
			return errors.New("alloca must produce a typed pointer")
		}
		return checkSized(in.Elem)
	case in.Op == OpLoad:
		if err := argc(1); err != nil {
			return err
		}
		if !in.Args[0].Type().IsPtr() {
			return fmt.Errorf("load from non-pointer %s", in.Args[0].Type())
		}
		if !in.Ty.Equal(in.Args[0].Type().Elem) {
			return fmt.Errorf("load result %s from %s", in.Ty, in.Args[0].Type())
		}
		return verifyAccessSize(in.Ty)
	case in.Op == OpStore:
		if err := argc(2); err != nil {
			return err
		}
		if !in.Args[1].Type().IsPtr() {
			return fmt.Errorf("store to non-pointer %s", in.Args[1].Type())
		}
		if !in.Args[0].Type().Equal(in.Args[1].Type().Elem) {
			return fmt.Errorf("store %s through %s", in.Args[0].Type(), in.Args[1].Type())
		}
		return verifyAccessSize(in.Args[0].Type())
	case in.Op == OpGEP:
		if err := argc(2); err != nil {
			return err
		}
		if !in.Args[0].Type().IsPtr() || !in.Args[1].Type().IsInt() {
			return fmt.Errorf("gep(%s, %s)", in.Args[0].Type(), in.Args[1].Type())
		}
		if !in.Ty.Equal(in.Args[0].Type()) {
			return errors.New("gep result type differs from base")
		}
	case in.Op == OpPhi:
		if len(in.Args) != len(in.PhiIn) {
			return fmt.Errorf("phi has %d values, %d blocks", len(in.Args), len(in.PhiIn))
		}
		for _, v := range in.Args {
			if !v.Type().Equal(in.Ty) {
				return fmt.Errorf("phi incoming %s into %s", v.Type(), in.Ty)
			}
		}
	case in.Op == OpSelect:
		if err := argc(3); err != nil {
			return err
		}
		if !in.Args[0].Type().Equal(I1) {
			return errors.New("select condition must be i1")
		}
		if !in.Args[1].Type().Equal(in.Args[2].Type()) || !in.Ty.Equal(in.Args[1].Type()) {
			return errors.New("select arm type mismatch")
		}
	case in.Op == OpBr:
		if len(in.Blocks) != 1 {
			return fmt.Errorf("br with %d targets", len(in.Blocks))
		}
	case in.Op == OpCondBr:
		if err := argc(1); err != nil {
			return err
		}
		if !in.Args[0].Type().Equal(I1) {
			return errors.New("condbr condition must be i1")
		}
		if len(in.Blocks) != 2 {
			return fmt.Errorf("condbr with %d targets", len(in.Blocks))
		}
	case in.Op == OpRet:
		if f.RetTy.IsVoid() {
			if len(in.Args) != 0 {
				return errors.New("value returned from void function")
			}
		} else {
			if len(in.Args) != 1 || !in.Args[0].Type().Equal(f.RetTy) {
				return fmt.Errorf("return type mismatch with %s", f.RetTy)
			}
		}
	case in.Op == OpCall:
		if in.Callee == nil {
			return errors.New("call without callee")
		}
		if m.Func(in.Callee.Name) != in.Callee {
			return fmt.Errorf("callee @%s not in module", in.Callee.Name)
		}
		if len(in.Args) != len(in.Callee.Params) {
			return fmt.Errorf("call @%s with %d args, want %d", in.Callee.Name, len(in.Args), len(in.Callee.Params))
		}
		for i, a := range in.Args {
			if !a.Type().Equal(in.Callee.Params[i].Ty) {
				return fmt.Errorf("call @%s arg %d: %s vs %s", in.Callee.Name, i, a.Type(), in.Callee.Params[i].Ty)
			}
		}
		if !in.Ty.Equal(in.Callee.RetTy) && !(in.Ty.IsVoid() && in.Callee.RetTy.IsVoid()) {
			return fmt.Errorf("call @%s result %s, want %s", in.Callee.Name, in.Ty, in.Callee.RetTy)
		}
	case in.Op == OpMalloc:
		if err := argc(1); err != nil {
			return err
		}
		if !in.Args[0].Type().IsInt() || !in.Ty.IsPtr() {
			return errors.New("malloc takes an integer size and yields a pointer")
		}
	case in.Op == OpFree:
		if err := argc(1); err != nil {
			return err
		}
		if !in.Args[0].Type().IsPtr() {
			return errors.New("free of non-pointer")
		}
	case in.Op == OpOutput:
		return argc(1)
	case in.Op == OpAbort, in.Op == OpDetect:
		return argc(0)
	case in.Op.IsMathUnary():
		if err := argc(1); err != nil {
			return err
		}
		if !in.Args[0].Type().IsFloat() || !in.Ty.Equal(in.Args[0].Type()) {
			return fmt.Errorf("math intrinsic %s on %s", in.Op, in.Args[0].Type())
		}
	case in.Op.IsMathBinary():
		if err := argc(2); err != nil {
			return err
		}
		if !in.Args[0].Type().IsFloat() || !in.Args[0].Type().Equal(in.Args[1].Type()) || !in.Ty.Equal(in.Args[0].Type()) {
			return fmt.Errorf("math intrinsic %s type mismatch", in.Op)
		}
	default:
		return fmt.Errorf("unknown opcode %d", int(in.Op))
	}
	return nil
}

// verifyAccessSize checks that a load or store of ty moves one machine
// word or less: a register holds at most 8 bytes.
func verifyAccessSize(ty *Type) error {
	if n := ty.Size(); n < 1 || n > 8 {
		return fmt.Errorf("access of %d bytes through %s (want 1 to 8)", n, ty)
	}
	return nil
}

func verifyConversion(in *Instr) error {
	from, to := in.Args[0].Type(), in.Ty
	bad := func() error { return fmt.Errorf("%s from %s to %s", in.Op, from, to) }
	switch in.Op {
	case OpTrunc:
		if !from.IsInt() || !to.IsInt() || to.Bits >= from.Bits {
			return bad()
		}
	case OpZExt, OpSExt:
		if !from.IsInt() || !to.IsInt() || to.Bits <= from.Bits {
			return bad()
		}
	case OpFPToSI:
		if !from.IsFloat() || !to.IsInt() {
			return bad()
		}
	case OpSIToFP:
		if !from.IsInt() || !to.IsFloat() {
			return bad()
		}
	case OpFPTrunc:
		if !from.IsFloat() || !to.IsFloat() || to.Bits >= from.Bits {
			return bad()
		}
	case OpFPExt:
		if !from.IsFloat() || !to.IsFloat() || to.Bits <= from.Bits {
			return bad()
		}
	case OpBitcast:
		if from.Size() != to.Size() {
			return bad()
		}
	case OpPtrToInt:
		if !from.IsPtr() || !to.IsInt() {
			return bad()
		}
	case OpIntToPtr:
		if !from.IsInt() || !to.IsPtr() {
			return bad()
		}
	}
	return nil
}

func verifyPhi(phi *Instr, preds []*Block) error {
	if len(phi.PhiIn) != len(preds) {
		return fmt.Errorf("phi %s has %d incoming edges, block has %d predecessors",
			phi.Ident(), len(phi.PhiIn), len(preds))
	}
	predSet := make(map[*Block]bool, len(preds))
	for _, p := range preds {
		predSet[p] = true
	}
	seen := make(map[*Block]bool, len(phi.PhiIn))
	for _, p := range phi.PhiIn {
		if !predSet[p] {
			return fmt.Errorf("phi %s has incoming edge from non-predecessor %s", phi.Ident(), p.Ident())
		}
		if seen[p] {
			return fmt.Errorf("phi %s has duplicate incoming edge from %s", phi.Ident(), p.Ident())
		}
		seen[p] = true
	}
	return nil
}

// predecessors returns the CFG predecessor lists of every block in f.
func predecessors(f *Function) map[*Block][]*Block {
	preds := make(map[*Block][]*Block, len(f.Blocks))
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			preds[s] = append(preds[s], b)
		}
	}
	return preds
}

// Dominators computes the immediate-dominator relation of f's CFG using the
// Cooper–Harvey–Kennedy iterative algorithm. The entry block's immediate
// dominator is itself. Unreachable blocks are absent from the result.
func Dominators(f *Function) map[*Block]*Block {
	entry := f.Entry()
	if entry == nil {
		return nil
	}
	// Reverse postorder numbering of reachable blocks.
	var order []*Block
	num := make(map[*Block]int)
	seen := make(map[*Block]bool)
	var dfs func(b *Block)
	dfs = func(b *Block) {
		seen[b] = true
		for _, s := range b.Succs() {
			if !seen[s] {
				dfs(s)
			}
		}
		order = append(order, b)
	}
	dfs(entry)
	// order is postorder; reverse it.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	for i, b := range order {
		num[b] = i
	}
	preds := predecessors(f)

	idom := make(map[*Block]*Block, len(order))
	idom[entry] = entry
	intersect := func(a, b *Block) *Block {
		for a != b {
			for num[a] > num[b] {
				a = idom[a]
			}
			for num[b] > num[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range order {
			if b == entry {
				continue
			}
			var newIdom *Block
			for _, p := range preds[b] {
				if idom[p] == nil {
					continue
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != nil && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// dominates reports whether block a dominates block b under idom.
func dominates(idom map[*Block]*Block, a, b *Block) bool {
	for {
		if a == b {
			return true
		}
		next := idom[b]
		if next == nil || next == b {
			return a == b
		}
		b = next
	}
}

// verifyDominance checks that every use of an instruction result is
// dominated by its definition (with the usual phi adjustment: a phi use must
// be dominated at the end of the corresponding incoming block).
func verifyDominance(f *Function, idom map[*Block]*Block, preds map[*Block][]*Block) error {
	_ = preds
	defBlock := make(map[*Instr]*Block)
	defPos := make(map[*Instr]int)
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			defBlock[in] = b
			defPos[in] = i
		}
	}
	for _, b := range f.Blocks {
		if idom[b] == nil && b != f.Entry() {
			continue // unreachable; nothing to check
		}
		for i, in := range b.Instrs {
			for ai, arg := range in.Args {
				def, ok := arg.(*Instr)
				if !ok {
					continue
				}
				db, exists := defBlock[def]
				if !exists {
					return fmt.Errorf("use of %s from another function in %s", def.Ident(), b.Ident())
				}
				useBlock, usePos := b, i
				if in.Op == OpPhi {
					useBlock = in.PhiIn[ai]
					usePos = len(useBlock.Instrs)
				}
				if db == useBlock {
					if defPos[def] >= usePos {
						return fmt.Errorf("%s used before definition in %s", def.Ident(), useBlock.Ident())
					}
				} else if !dominates(idom, db, useBlock) {
					return fmt.Errorf("definition of %s in %s does not dominate use in %s",
						def.Ident(), db.Ident(), useBlock.Ident())
				}
			}
		}
	}
	return nil
}
