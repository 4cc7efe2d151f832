package bench

import (
	"fmt"
	"math/rand"
	"strings"
)

// RandomProgram mints a randomized multi-function MiniC program from rng:
// value helpers feeding main plus a self-contained void worker, so both
// cross-function value flow and isolated functions occur. Tests use it to
// compare two analysis paths on programs nobody shaped by hand.
func RandomProgram(rng *rand.Rand) string {
	n := 40 + rng.Intn(120)
	mod := 4 + rng.Intn(8)
	var b strings.Builder
	fmt.Fprintf(&b, "int f(int x) { return x * %d + %d; }\n", 1+rng.Intn(9), rng.Intn(100))
	fmt.Fprintf(&b, "int g(int x) { if (x < %d) { return x + 1; } return x - f(x %% 7); }\n", rng.Intn(50))
	fmt.Fprintf(&b, "void w() {\n  int a[%d];\n  int i = 0;\n", mod)
	fmt.Fprintf(&b, "  while (i < %d) { a[i %% %d] = i * %d + %d; i = i + 1; }\n",
		20+rng.Intn(40), mod, 1+rng.Intn(5), rng.Intn(9))
	fmt.Fprintf(&b, "  int j = 0;\n  while (j < %d) { output(a[j]); j = j + 1; }\n}\n", mod)
	b.WriteString("int main() {\n")
	fmt.Fprintf(&b, "  int arr[%d];\n", mod)
	fmt.Fprintf(&b, "  int i = 0; int acc = %d;\n", rng.Intn(10))
	fmt.Fprintf(&b, "  while (i < %d) {\n", n)
	b.WriteString("    int t = f(i) ^ g(acc % 31);\n")
	fmt.Fprintf(&b, "    arr[i %% %d] = t;\n", mod)
	switch rng.Intn(3) {
	case 0:
		fmt.Fprintf(&b, "    if (t %% 5 == 0) { acc = acc + arr[(i + 1) %% %d]; } else { acc = acc ^ t; }\n", mod)
	case 1:
		fmt.Fprintf(&b, "    acc = acc + (t >> 2) - arr[t %% %d & %d];\n", mod, mod-1)
	default:
		fmt.Fprintf(&b, "    acc = (acc << 1) ^ arr[i %% %d];\n", mod)
	}
	b.WriteString("    i = i + 1;\n  }\n")
	b.WriteString("  w();\n")
	fmt.Fprintf(&b, "  int j = 0;\n  while (j < %d) { output(arr[j]); j = j + 1; }\n", mod)
	b.WriteString("  output(acc);\n  return 0;\n}\n")
	return b.String()
}
