package ir

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Parse reads a module from the textual form emitted by Print, making the
// printer/parser pair a lossless round trip. The accepted grammar is
// exactly Print's output — an LLVM-like subset — plus arbitrary blank
// lines and ';' comments.
func Parse(src string) (*Module, error) {
	p := &moduleParser{
		mod:   &Module{},
		funcs: make(map[string]*Function),
	}
	if err := p.run(src); err != nil {
		return nil, fmt.Errorf("ir: parse: %w", err)
	}
	p.mod.Finish()
	if err := Verify(p.mod); err != nil {
		return nil, fmt.Errorf("ir: parsed module invalid: %w", err)
	}
	return p.mod, nil
}

type moduleParser struct {
	mod   *Module
	funcs map[string]*Function
	line  int
}

func (p *moduleParser) errf(format string, args ...any) error {
	return fmt.Errorf("line %d: %s", p.line, fmt.Sprintf(format, args...))
}

func (p *moduleParser) run(src string) error {
	lines := strings.Split(src, "\n")
	// First pass: declare function signatures so calls resolve in order.
	for i, raw := range lines {
		line := strings.TrimSpace(raw)
		if strings.HasPrefix(line, "define ") {
			p.line = i + 1
			fn, err := p.parseSignature(line)
			if err != nil {
				return err
			}
			if _, dup := p.funcs[fn.Name]; dup {
				return p.errf("duplicate function @%s", fn.Name)
			}
			p.funcs[fn.Name] = fn
			p.mod.Funcs = append(p.mod.Funcs, fn)
			fn.Parent = p.mod
		}
	}
	// Second pass: globals and bodies.
	var cur *funcParser
	for i, raw := range lines {
		p.line = i + 1
		line := strings.TrimSpace(raw)
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "; module "):
			p.mod.Name = strings.TrimPrefix(line, "; module ")
		case strings.HasPrefix(line, ";"):
			continue
		case strings.HasPrefix(line, "@"):
			if err := p.parseGlobal(line); err != nil {
				return err
			}
		case strings.HasPrefix(line, "define "):
			name := betweenAtParen(line)
			cur = newFuncParser(p, p.funcs[name])
		case line == "}":
			if cur == nil {
				return p.errf("unexpected '}'")
			}
			if err := cur.finish(); err != nil {
				return err
			}
			cur = nil
		case strings.HasSuffix(line, ":"):
			if cur == nil {
				return p.errf("label outside a function")
			}
			cur.startBlock(strings.TrimSuffix(line, ":"))
		default:
			if cur == nil {
				return p.errf("instruction outside a function: %q", line)
			}
			cur.addLine(p.line, line)
		}
	}
	if cur != nil {
		return errors.New("unterminated function body")
	}
	return nil
}

func betweenAtParen(line string) string {
	at := strings.Index(line, "@")
	par := strings.Index(line[at:], "(")
	return line[at+1 : at+par]
}

// parseType reads a type from the front of s, returning the remainder.
func parseType(s string) (*Type, string, error) {
	s = strings.TrimSpace(s)
	var base *Type
	switch {
	case strings.HasPrefix(s, "["):
		end := matchBracket(s)
		if end < 0 {
			return nil, s, fmt.Errorf("unterminated array type in %q", s)
		}
		inner := s[1:end]
		parts := strings.SplitN(inner, " x ", 2)
		if len(parts) != 2 {
			return nil, s, fmt.Errorf("malformed array type %q", s[:end+1])
		}
		n, err := strconv.Atoi(strings.TrimSpace(parts[0]))
		if err != nil {
			return nil, s, fmt.Errorf("array length in %q: %v", s, err)
		}
		elem, rest, err := parseType(parts[1])
		if err != nil {
			return nil, s, err
		}
		if strings.TrimSpace(rest) != "" {
			return nil, s, fmt.Errorf("trailing %q in array element type", rest)
		}
		if err := checkLen(n, elem); err != nil {
			return nil, s, fmt.Errorf("array type %q: %v", s[:end+1], err)
		}
		base = ArrayOf(n, elem)
		s = s[end+1:]
	case strings.HasPrefix(s, "void"):
		base, s = Void, s[4:]
	case strings.HasPrefix(s, "double"):
		base, s = F64, s[6:]
	case strings.HasPrefix(s, "float"):
		base, s = F32, s[5:]
	case strings.HasPrefix(s, "i"):
		j := 1
		for j < len(s) && s[j] >= '0' && s[j] <= '9' {
			j++
		}
		if j == 1 {
			return nil, s, fmt.Errorf("bad type at %q", s)
		}
		bits, err := strconv.Atoi(s[1:j])
		if err != nil || bits < 1 || bits > 64 {
			return nil, s, fmt.Errorf("bad integer width in %q", s)
		}
		base = IntType(bits)
		s = s[j:]
	default:
		return nil, s, fmt.Errorf("unknown type at %q", s)
	}
	for strings.HasPrefix(s, "*") {
		base = PtrTo(base)
		s = s[1:]
	}
	return base, s, nil
}

// matchBracket returns the index of the ']' matching the '[' at s[0].
func matchBracket(s string) int {
	depth := 0
	for i, c := range s {
		switch c {
		case '[':
			depth++
		case ']':
			depth--
			if depth == 0 {
				return i
			}
		}
	}
	return -1
}

func (p *moduleParser) parseGlobal(line string) error {
	// @name = global|constant <type> [init...]
	eq := strings.Index(line, " = ")
	if eq < 0 {
		return p.errf("malformed global %q", line)
	}
	name := strings.TrimPrefix(line[:eq], "@")
	rest := line[eq+3:]
	ro := false
	switch {
	case strings.HasPrefix(rest, "constant "):
		ro = true
		rest = strings.TrimPrefix(rest, "constant ")
	case strings.HasPrefix(rest, "global "):
		rest = strings.TrimPrefix(rest, "global ")
	default:
		return p.errf("global %q missing linkage keyword", name)
	}
	g := &Global{Name: name, ReadOnly: ro, Count: 1}
	ty, rest, err := parseType(rest)
	if err != nil {
		return p.errf("global @%s: %v", name, err)
	}
	if ty.Kind == KindArray {
		g.Count = ty.Len
		g.Elem = ty.Elem
	} else {
		g.Elem = ty
	}
	rest = strings.TrimSpace(rest)
	if rest != "" {
		if !strings.HasPrefix(rest, "[") || !strings.HasSuffix(rest, "]") {
			return p.errf("global @%s: malformed initializer %q", name, rest)
		}
		for _, tok := range strings.Fields(rest[1 : len(rest)-1]) {
			v, err := strconv.ParseUint(tok, 0, 64)
			if err != nil {
				return p.errf("global @%s: initializer %q: %v", name, tok, err)
			}
			g.Init = append(g.Init, v)
		}
	}
	p.mod.Globals = append(p.mod.Globals, g)
	return nil
}

func (p *moduleParser) parseSignature(line string) (*Function, error) {
	// define <ret> @name(<ty> %a, ...) {
	body := strings.TrimPrefix(line, "define ")
	retTy, rest, err := parseType(body)
	if err != nil {
		return nil, p.errf("return type: %v", err)
	}
	rest = strings.TrimSpace(rest)
	if !strings.HasPrefix(rest, "@") {
		return nil, p.errf("missing function name in %q", line)
	}
	open := strings.Index(rest, "(")
	closeIdx := strings.LastIndex(rest, ")")
	if open < 0 || closeIdx < open {
		return nil, p.errf("malformed signature %q", line)
	}
	fn := &Function{Name: rest[1:open], RetTy: retTy}
	params := strings.TrimSpace(rest[open+1 : closeIdx])
	if params != "" {
		for i, ps := range strings.Split(params, ",") {
			pty, prest, err := parseType(ps)
			if err != nil {
				return nil, p.errf("parameter %d: %v", i, err)
			}
			pname := strings.TrimSpace(prest)
			if !strings.HasPrefix(pname, "%") {
				return nil, p.errf("parameter %d missing name", i)
			}
			fn.Params = append(fn.Params, &Param{Name: pname[1:], Ty: pty, Index: i})
		}
	}
	return fn, nil
}

// funcParser accumulates a function body and resolves it in a second pass
// (registers and blocks may be referenced before their definitions, e.g.
// by phis and forward branches).
type funcParser struct {
	p      *moduleParser
	fn     *Function
	blocks map[string]*Block
	regs   map[string]*Instr
	lines  []bodyLine
	cur    *Block
}

type bodyLine struct {
	line int
	blk  *Block
	text string
}

func newFuncParser(p *moduleParser, fn *Function) *funcParser {
	return &funcParser{
		p:      p,
		fn:     fn,
		blocks: make(map[string]*Block),
		regs:   make(map[string]*Instr),
	}
}

func (fp *funcParser) startBlock(name string) {
	blk := &Block{Name: name, Parent: fp.fn}
	fp.fn.Blocks = append(fp.fn.Blocks, blk)
	fp.blocks[name] = blk
	fp.cur = blk
}

func (fp *funcParser) addLine(line int, text string) {
	fp.lines = append(fp.lines, bodyLine{line: line, blk: fp.cur, text: text})
}

// finish parses all collected instruction lines: first creating result
// shells (so registers resolve), then filling operands.
func (fp *funcParser) finish() error {
	// Pass 1: create shells for value-producing instructions.
	for _, bl := range fp.lines {
		if eq := strings.Index(bl.text, " = "); eq > 0 && strings.HasPrefix(bl.text, "%") {
			name := bl.text[1:eq]
			fp.regs[name] = &Instr{Name: name}
		}
	}
	// Pass 2: full parse.
	for _, bl := range fp.lines {
		fp.p.line = bl.line
		in, err := fp.parseInstr(bl.text)
		if err != nil {
			return err
		}
		if bl.blk == nil {
			return fp.p.errf("instruction before any block label")
		}
		in.Parent = bl.blk
		bl.blk.Instrs = append(bl.blk.Instrs, in)
	}
	return nil
}

// value parses a typed operand ("i32 %r", "double 2.5", "i64* @g").
func (fp *funcParser) value(ty *Type, tok string) (Value, error) {
	tok = strings.TrimSpace(tok)
	switch {
	case strings.HasPrefix(tok, "%"):
		name := tok[1:]
		if in, ok := fp.regs[name]; ok {
			// Check the annotated type against the definition when it has
			// already been parsed (forward references from phis are
			// checked by the verifier instead).
			if in.Op != 0 && !in.Type().Equal(ty) {
				return nil, fmt.Errorf("register %%%s has type %s, annotated %s", name, in.Type(), ty)
			}
			return in, nil
		}
		for _, prm := range fp.fn.Params {
			if prm.Name == name {
				return prm, nil
			}
		}
		return nil, fmt.Errorf("undefined register %%%s", name)
	case strings.HasPrefix(tok, "@"):
		g := fp.p.mod.Global(tok[1:])
		if g == nil {
			return nil, fmt.Errorf("undefined global %s", tok)
		}
		return g, nil
	case ty.IsFloat():
		f, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return nil, fmt.Errorf("float literal %q: %v", tok, err)
		}
		return ConstFloat(ty, f), nil
	case ty.IsInt():
		v, err := strconv.ParseInt(tok, 0, 64)
		if err != nil {
			return nil, fmt.Errorf("integer literal %q: %v", tok, err)
		}
		return ConstInt(ty, v), nil
	default:
		return nil, fmt.Errorf("cannot parse %q as %s", tok, ty)
	}
}

// typedValue parses "<type> <val>" returning the remainder after val's
// token (split at the next comma or end).
func (fp *funcParser) typedValue(s string) (Value, *Type, string, error) {
	ty, rest, err := parseType(s)
	if err != nil {
		return nil, nil, s, err
	}
	rest = strings.TrimSpace(rest)
	tok := rest
	var tail string
	if c := strings.Index(rest, ","); c >= 0 {
		tok, tail = rest[:c], rest[c+1:]
	}
	v, err := fp.value(ty, tok)
	if err != nil {
		return nil, nil, s, err
	}
	return v, ty, tail, nil
}

func (fp *funcParser) block(tok string) (*Block, error) {
	tok = strings.TrimSpace(tok)
	tok = strings.TrimPrefix(tok, "label ")
	tok = strings.TrimSpace(tok)
	if !strings.HasPrefix(tok, "%") {
		return nil, fmt.Errorf("expected a block label, found %q", tok)
	}
	b, ok := fp.blocks[tok[1:]]
	if !ok {
		return nil, fmt.Errorf("undefined block %s", tok)
	}
	return b, nil
}

var opcodeByName = func() map[string]Opcode {
	out := make(map[string]Opcode, len(opcodeNames))
	for op, name := range opcodeNames {
		if op == OpCondBr { // shares "br" with OpBr
			continue
		}
		out[name] = op
	}
	return out
}()

var predByName = func() map[string]Pred {
	out := make(map[string]Pred, len(predNames))
	for p, name := range predNames {
		out[name] = p
	}
	return out
}()

// parseInstr parses one instruction line.
func (fp *funcParser) parseInstr(line string) (*Instr, error) {
	var shell *Instr
	rest := line
	if strings.HasPrefix(line, "%") {
		eq := strings.Index(line, " = ")
		if eq < 0 {
			return nil, fp.p.errf("malformed instruction %q", line)
		}
		shell = fp.regs[line[1:eq]]
		rest = line[eq+3:]
	}
	sp := strings.IndexByte(rest, ' ')
	mnemonic := rest
	args := ""
	if sp >= 0 {
		mnemonic, args = rest[:sp], strings.TrimSpace(rest[sp+1:])
	}
	op, ok := opcodeByName[mnemonic]
	if !ok && mnemonic != "call" {
		return nil, fp.p.errf("unknown opcode %q", mnemonic)
	}
	fill := func(in Instr) *Instr {
		if shell == nil {
			out := in
			return &out
		}
		name := shell.Name
		*shell = in
		shell.Name = name
		return shell
	}
	wrap := func(err error) error { return fp.p.errf("%s: %v", mnemonic, err) }

	switch {
	case mnemonic == "call":
		return fp.parseCall(args, fill, wrap)
	case op == OpBr:
		if strings.HasPrefix(args, "label ") {
			blk, err := fp.block(args)
			if err != nil {
				return nil, wrap(err)
			}
			return fill(Instr{Op: OpBr, Ty: Void, Blocks: []*Block{blk}}), nil
		}
		cond, _, tail, err := fp.typedValue(args)
		if err != nil {
			return nil, wrap(err)
		}
		parts := strings.SplitN(tail, ",", 2)
		if len(parts) != 2 {
			return nil, fp.p.errf("br: missing targets in %q", args)
		}
		then, err := fp.block(parts[0])
		if err != nil {
			return nil, wrap(err)
		}
		els, err := fp.block(parts[1])
		if err != nil {
			return nil, wrap(err)
		}
		return fill(Instr{Op: OpCondBr, Ty: Void, Args: []Value{cond}, Blocks: []*Block{then, els}}), nil

	case op == OpRet:
		if args == "void" || args == "" {
			return fill(Instr{Op: OpRet, Ty: Void}), nil
		}
		v, _, _, err := fp.typedValue(args)
		if err != nil {
			return nil, wrap(err)
		}
		return fill(Instr{Op: OpRet, Ty: Void, Args: []Value{v}}), nil

	case op == OpAlloca:
		elem, _, err := parseType(args)
		if err != nil {
			return nil, wrap(err)
		}
		resTy := elem
		if elem.Kind == KindArray {
			resTy = elem.Elem
		}
		return fill(Instr{Op: OpAlloca, Ty: PtrTo(resTy), Elem: elem}), nil

	case op == OpLoad:
		// load <ty>, <ptrTy> <ptr>
		ty, rest2, err := parseType(args)
		if err != nil {
			return nil, wrap(err)
		}
		rest2 = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest2), ","))
		ptr, _, _, err := fp.typedValue(rest2)
		if err != nil {
			return nil, wrap(err)
		}
		return fill(Instr{Op: OpLoad, Ty: ty, Elem: ty, Args: []Value{ptr}}), nil

	case op == OpStore:
		v, vty, tail, err := fp.typedValue(args)
		if err != nil {
			return nil, wrap(err)
		}
		ptr, _, _, err := fp.typedValue(tail)
		if err != nil {
			return nil, wrap(err)
		}
		return fill(Instr{Op: OpStore, Ty: Void, Elem: vty, Args: []Value{v, ptr}}), nil

	case op == OpGEP:
		elem, rest2, err := parseType(args)
		if err != nil {
			return nil, wrap(err)
		}
		rest2 = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest2), ","))
		base, bty, tail, err := fp.typedValue(rest2)
		if err != nil {
			return nil, wrap(err)
		}
		idx, _, _, err := fp.typedValue(tail)
		if err != nil {
			return nil, wrap(err)
		}
		return fill(Instr{Op: OpGEP, Ty: bty, Elem: elem, Args: []Value{base, idx}}), nil

	case op == OpICmp, op == OpFCmp:
		sp2 := strings.IndexByte(args, ' ')
		if sp2 < 0 {
			return nil, fp.p.errf("%s: missing predicate", mnemonic)
		}
		pred, ok := predByName[args[:sp2]]
		if !ok {
			return nil, fp.p.errf("%s: unknown predicate %q", mnemonic, args[:sp2])
		}
		a, aty, tail, err := fp.typedValue(args[sp2+1:])
		if err != nil {
			return nil, wrap(err)
		}
		b, err := fp.value(aty, tail)
		if err != nil {
			return nil, wrap(err)
		}
		return fill(Instr{Op: op, Ty: I1, Pred: pred, Args: []Value{a, b}}), nil

	case op == OpPhi:
		// phi <ty> [ v, %blk ], ...
		ty, rest2, err := parseType(args)
		if err != nil {
			return nil, wrap(err)
		}
		in := Instr{Op: OpPhi, Ty: ty}
		for _, pair := range splitBracketPairs(rest2) {
			inner := strings.TrimSpace(pair)
			parts := strings.SplitN(inner, ",", 2)
			if len(parts) != 2 {
				return nil, fp.p.errf("phi: malformed incoming %q", pair)
			}
			v, err := fp.value(ty, parts[0])
			if err != nil {
				return nil, wrap(err)
			}
			blk, err := fp.block(parts[1])
			if err != nil {
				return nil, wrap(err)
			}
			in.Args = append(in.Args, v)
			in.PhiIn = append(in.PhiIn, blk)
		}
		return fill(in), nil

	case op == OpSelect:
		cond, _, t1, err := fp.typedValue(args)
		if err != nil {
			return nil, wrap(err)
		}
		a, aty, t2, err := fp.typedValue(t1)
		if err != nil {
			return nil, wrap(err)
		}
		b, _, _, err := fp.typedValue(t2)
		if err != nil {
			return nil, wrap(err)
		}
		return fill(Instr{Op: OpSelect, Ty: aty, Args: []Value{cond, a, b}}), nil

	case op == OpMalloc:
		// malloc <ptrTy>, <sizeTy> <size>
		pty, rest2, err := parseType(args)
		if err != nil {
			return nil, wrap(err)
		}
		rest2 = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest2), ","))
		size, _, _, err := fp.typedValue(rest2)
		if err != nil {
			return nil, wrap(err)
		}
		return fill(Instr{Op: OpMalloc, Ty: pty, Elem: pty.Elem, Args: []Value{size}}), nil

	case op == OpFree, op == OpOutput:
		v, _, _, err := fp.typedValue(args)
		if err != nil {
			return nil, wrap(err)
		}
		return fill(Instr{Op: op, Ty: Void, Args: []Value{v}}), nil

	case op == OpAbort, op == OpDetect:
		return fill(Instr{Op: op, Ty: Void}), nil

	case op.IsConversion():
		// <op> <ty> <v> to <ty>
		toIdx := strings.LastIndex(args, " to ")
		if toIdx < 0 {
			return nil, fp.p.errf("%s: missing 'to'", mnemonic)
		}
		v, _, _, err := fp.typedValue(args[:toIdx])
		if err != nil {
			return nil, wrap(err)
		}
		to, _, err := parseType(args[toIdx+4:])
		if err != nil {
			return nil, wrap(err)
		}
		return fill(Instr{Op: op, Ty: to, Args: []Value{v}}), nil

	case op.IsMathUnary():
		v, vty, _, err := fp.typedValue(args)
		if err != nil {
			return nil, wrap(err)
		}
		return fill(Instr{Op: op, Ty: vty, Args: []Value{v}}), nil

	default:
		// Two-operand arithmetic / bitwise / binary math:
		// <op> <ty> <a>, <b>
		a, aty, tail, err := fp.typedValue(args)
		if err != nil {
			return nil, wrap(err)
		}
		b, err := fp.value(aty, tail)
		if err != nil {
			return nil, wrap(err)
		}
		return fill(Instr{Op: op, Ty: aty, Args: []Value{a, b}}), nil
	}
}

func (fp *funcParser) parseCall(args string, fill func(Instr) *Instr, wrap func(error) error) (*Instr, error) {
	// call <retTy> @name(<ty> <v>, ...)
	retTy, rest, err := parseType(args)
	if err != nil {
		return nil, wrap(err)
	}
	rest = strings.TrimSpace(rest)
	open := strings.Index(rest, "(")
	closeIdx := strings.LastIndex(rest, ")")
	if !strings.HasPrefix(rest, "@") || open < 0 || closeIdx < open {
		return nil, wrap(fmt.Errorf("malformed call %q", args))
	}
	callee, ok := fp.p.funcs[rest[1:open]]
	if !ok {
		return nil, wrap(fmt.Errorf("undefined function %s", rest[:open]))
	}
	in := Instr{Op: OpCall, Ty: retTy, Callee: callee}
	argList := strings.TrimSpace(rest[open+1 : closeIdx])
	for argList != "" {
		v, _, tail, err := fp.typedValue(argList)
		if err != nil {
			return nil, wrap(err)
		}
		in.Args = append(in.Args, v)
		argList = strings.TrimSpace(tail)
	}
	return fill(in), nil
}

// splitBracketPairs splits "[ a, b ], [ c, d ]" into its bracketed chunks.
func splitBracketPairs(s string) []string {
	var out []string
	for {
		open := strings.Index(s, "[")
		if open < 0 {
			return out
		}
		closeIdx := strings.Index(s[open:], "]")
		if closeIdx < 0 {
			return out
		}
		out = append(out, s[open+1:open+closeIdx])
		s = s[open+closeIdx+1:]
	}
}
