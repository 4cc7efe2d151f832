package ir

import (
	"strings"
	"testing"
)

func TestParseRoundTripLoop(t *testing.T) {
	m := buildLoopModule(t)
	text := Print(m)
	parsed, err := Parse(text)
	if err != nil {
		t.Fatalf("Parse: %v\n%s", err, text)
	}
	if got := Print(parsed); got != text {
		t.Errorf("round trip differs:\n--- original ---\n%s\n--- reparsed ---\n%s", text, got)
	}
}

func TestParseRoundTripKitchenSink(t *testing.T) {
	m := buildKitchenSink(t)
	text := Print(m)
	parsed, err := Parse(text)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got := Print(parsed); got != text {
		t.Errorf("kitchen-sink round trip differs:\n%s\nvs\n%s", text, got)
	}
	// Globals survive with initializers and read-only flags.
	g := parsed.Global("tbl")
	if g == nil || g.Count != 4 || len(g.Init) != 4 || g.Init[2] != 3 {
		t.Errorf("global lost in round trip: %+v", g)
	}
}

func TestParseTypes(t *testing.T) {
	tests := []struct {
		src  string
		want string
	}{
		{"i1", "i1"}, {"i32", "i32"}, {"i64*", "i64*"},
		{"double", "double"}, {"float", "float"},
		{"[8 x i32]", "[8 x i32]"}, {"[2 x [3 x double]]", "[2 x [3 x double]]"},
		{"i8**", "i8**"},
	}
	for _, tt := range tests {
		ty, rest, err := parseType(tt.src)
		if err != nil {
			t.Errorf("parseType(%q): %v", tt.src, err)
			continue
		}
		if rest != "" {
			t.Errorf("parseType(%q) left %q", tt.src, rest)
		}
		if ty.String() != tt.want {
			t.Errorf("parseType(%q) = %s, want %s", tt.src, ty, tt.want)
		}
	}
	for _, bad := range []string{"x32", "[8 y i32]", "i", "[q x i32]", "[-1 x i8]",
		"[4611686018427387904 x i16]", "[2 x [-1 x i8]]*"} {
		if _, _, err := parseType(bad); err == nil {
			t.Errorf("parseType(%q) accepted", bad)
		}
	}
}

// parseErrors are inputs Parse must reject, one per failure class.
var parseErrors = []struct {
	name, src string
}{
	{"unknown opcode", "define void @main() {\nentry:\n  frobnicate\n}"},
	{"undefined register", "define void @main() {\nentry:\n  output i32 %ghost\n  ret void\n}"},
	{"undefined block", "define void @main() {\nentry:\n  br label %nowhere\n}"},
	{"undefined callee", "define void @main() {\nentry:\n  call void @ghost()\n  ret void\n}"},
	{"stray close", "}"},
	{"instr outside function", "  ret void"},
	{"bad global", "@g = wibble i32"},
	{"unterminated body", "define void @main() {\nentry:\n  ret void"},
	{"type error caught by verifier", "define void @main() {\nentry:\n  %r = add i32 1, 2\n  output double %r\n  ret void\n}"},
	{"load wider than a register", "define void @main() {\nentry:\n  %p = alloca [4 x i64]\n  %q = bitcast i64* %p to [4 x i64]*\n  %v = load [4 x i64], [4 x i64]* %q\n  ret void\n}"},
	{"store wider than a register", "define void @f([2 x i64] %v, [2 x i64]* %p) {\nentry:\n  store [2 x i64] %v, [2 x i64]* %p\n  ret void\n}"},
	{"load of void", "define void @main() {\nentry:\n  %p = alloca i64\n  %q = bitcast i64* %p to void*\n  %v = load void, void* %q\n  ret void\n}"},
	// An array length must give a byte size in [0, MaxInt64], or frame
	// offsets wrap: a negative length puts the next alloca below its
	// frame.
	{"negative alloca length", "define void @main() {\nentry:\n  %a = alloca [-1 x i8]\n  %b = alloca i8\n  ret void\n}"},
	{"alloca length overflowing int64", "define void @main() {\nentry:\n  %a = alloca [4611686018427387904 x i16]\n  ret void\n}"},
	{"negative nested length", "define void @main() {\nentry:\n  %a = alloca [2 x [-1 x i8]]\n  ret void\n}"},
	{"nested length overflowing int64", "define void @main() {\nentry:\n  %a = alloca [2 x [4611686018427387904 x i8]]\n  ret void\n}"},
	{"negative global length", "@g = global [-3 x i64]\ndefine void @main() {\nentry:\n  ret void\n}"},
	{"global length overflowing int64", "@g = global [2305843009213693952 x i64]\ndefine void @main() {\nentry:\n  ret void\n}"},
	{"frame overflowing int64", "define void @main() {\nentry:\n  %a = alloca [4611686018427387904 x i8]\n  %b = alloca [4611686018427387904 x i8]\n  %c = alloca [4611686018427387904 x i8]\n  %d = alloca [4611686018427387904 x i8]\n  %e = alloca i64\n  ret void\n}"},
}

func TestParseErrors(t *testing.T) {
	for _, tt := range parseErrors {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Parse(tt.src); err == nil {
				t.Errorf("Parse accepted %q", tt.src)
			}
		})
	}
}

func TestParseHandComposedModule(t *testing.T) {
	src := `; module hand
@seed = global i32 [0x2a]

define i32 @double(i32 %x) {
entry:
  %r = add i32 %x, %x
  ret i32 %r
}

define void @main() {
entry:
  %s = load i32, i32* @seed
  %d = call i32 @double(i32 %s)
  output i32 %d
  ret void
}
`
	m, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if m.Name != "hand" {
		t.Errorf("module name %q", m.Name)
	}
	if len(m.Funcs) != 2 || m.Func("double") == nil {
		t.Fatal("functions missing")
	}
	if m.Global("seed").Init[0] != 0x2a {
		t.Error("initializer lost")
	}
	// Round trip is stable.
	again, err := Parse(Print(m))
	if err != nil {
		t.Fatal(err)
	}
	if Print(again) != Print(m) {
		t.Error("round trip unstable")
	}
}

func TestParseRejectsForwardUseOutsidePhi(t *testing.T) {
	// A use before definition parses (shells) but must fail verification.
	src := `define void @main() {
entry:
  output i32 %later
  %later = add i32 1, 2
  ret void
}`
	if _, err := Parse(src); err == nil {
		t.Error("use-before-def accepted")
	}
	if !strings.Contains(Print(buildLoopModuleForParse()), "phi") {
		t.Skip("sanity helper unused")
	}
}

func buildLoopModuleForParse() *Module {
	b := NewBuilder("x")
	b.NewFunc("main", Void)
	entry := b.CurBlock()
	loop := b.NewBlock("loop")
	exit := b.NewBlock("exit")
	b.Br(loop)
	b.SetBlock(loop)
	phi := b.Phi(I32)
	nxt := b.Add(phi, ConstInt(I32, 1))
	b.AddIncoming(phi, ConstInt(I32, 0), entry)
	b.AddIncoming(phi, nxt, loop)
	cond := b.ICmp(ISLT, nxt, ConstInt(I32, 3))
	b.CondBr(cond, loop, exit)
	b.SetBlock(exit)
	b.Ret(nil)
	return b.MustModule()
}

func TestParsePhiWithForwardValue(t *testing.T) {
	// Phi incoming values defined later in the block graph must resolve.
	m := buildLoopModuleForParse()
	text := Print(m)
	parsed, err := Parse(text)
	if err != nil {
		t.Fatalf("Parse: %v\n%s", err, text)
	}
	if Print(parsed) != text {
		t.Error("phi round trip differs")
	}
}

// FuzzParse: Parse, which reads the analysis daemon's input, never
// panics, and any module it accepts prints, re-parses and prints to the
// same text. The seeds are small on purpose: a printed kernel makes each
// execution orders of magnitude slower.
func FuzzParse(f *testing.F) {
	f.Add(Print(buildLoopModuleForParse()))
	f.Add(Print(buildKitchenSink(f)))
	for _, tt := range parseErrors {
		f.Add(tt.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := Parse(src)
		if err != nil {
			return
		}
		text := Print(m)
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("printed module does not parse: %v\n%s", err, text)
		}
		if got := Print(again); got != text {
			t.Fatalf("print of the re-parsed module differs:\n%s\nvs\n%s", text, got)
		}
	})
}
