// Package ir implements a small, strongly typed, LLVM-like intermediate
// representation: typed virtual registers in SSA form, basic blocks,
// functions and modules, together with a builder, a verifier and a textual
// printer.
//
// The instruction set deliberately mirrors the subset of LLVM IR that the
// ePVF methodology reasons about (DSN'16, §II-D and Table III): integer and
// floating-point arithmetic, comparisons, conversions including bitcast,
// memory access through alloca/load/store/getelementptr, control flow
// (br, phi, select, call, ret) and a few process-level intrinsics (malloc,
// free, output, abort) that stand in for libc on the simulated machine.
package ir

import (
	"fmt"
	"math"
	"strconv"
)

// Kind discriminates the structural categories of IR types.
type Kind int

// Type kinds. Enums start at one so the zero Kind is invalid and easy to
// catch in the verifier.
const (
	KindVoid Kind = iota + 1
	KindInt
	KindFloat
	KindPtr
	KindArray
)

// Type describes an IR type. Types are immutable after construction and are
// compared structurally with Equal; the package exposes singletons for the
// common scalar types.
type Type struct {
	Kind Kind
	// Bits is the bit width for KindInt (1..64) and KindFloat (32 or 64).
	Bits int
	// Elem is the pointee for KindPtr and the element type for KindArray.
	Elem *Type
	// Len is the element count for KindArray.
	Len int
}

// Singleton scalar types. PtrTo and ArrayOf build the composite ones.
var (
	Void = &Type{Kind: KindVoid}
	I1   = &Type{Kind: KindInt, Bits: 1}
	I8   = &Type{Kind: KindInt, Bits: 8}
	I16  = &Type{Kind: KindInt, Bits: 16}
	I32  = &Type{Kind: KindInt, Bits: 32}
	I64  = &Type{Kind: KindInt, Bits: 64}
	F32  = &Type{Kind: KindFloat, Bits: 32}
	F64  = &Type{Kind: KindFloat, Bits: 64}
)

// IntType returns the integer type of the given width. Widths 1, 8, 16, 32
// and 64 return the shared singletons.
func IntType(bits int) *Type {
	switch bits {
	case 1:
		return I1
	case 8:
		return I8
	case 16:
		return I16
	case 32:
		return I32
	case 64:
		return I64
	default:
		return &Type{Kind: KindInt, Bits: bits}
	}
}

// PtrTo returns the pointer type with the given pointee.
func PtrTo(elem *Type) *Type { return &Type{Kind: KindPtr, Elem: elem} }

// ArrayOf returns the array type [n x elem].
func ArrayOf(n int, elem *Type) *Type {
	return &Type{Kind: KindArray, Elem: elem, Len: n}
}

// checkLen reports why n elements of elem have no byte size: n is
// negative, or n * elem.Size() overflows int64.
func checkLen(n int, elem *Type) error {
	if n < 0 {
		return fmt.Errorf("negative length %d of %s", n, elem)
	}
	if es := elem.Size(); es > 0 && int64(n) > math.MaxInt64/es {
		return fmt.Errorf("%d x %s overflows int64 bytes", n, elem)
	}
	return nil
}

// checkSized reports the first array in t, innermost first, whose
// length has no byte size (see checkLen).
func checkSized(t *Type) error {
	if t.Kind != KindArray {
		return nil
	}
	if err := checkSized(t.Elem); err != nil {
		return err
	}
	return checkLen(t.Len, t.Elem)
}

// IsInt reports whether t is an integer type.
func (t *Type) IsInt() bool { return t != nil && t.Kind == KindInt }

// IsFloat reports whether t is a floating-point type.
func (t *Type) IsFloat() bool { return t != nil && t.Kind == KindFloat }

// IsPtr reports whether t is a pointer type.
func (t *Type) IsPtr() bool { return t != nil && t.Kind == KindPtr }

// IsVoid reports whether t is the void type.
func (t *Type) IsVoid() bool { return t == nil || t.Kind == KindVoid }

// Size returns the storage size of t in bytes on the simulated 64-bit
// machine. i1 occupies one byte, pointers occupy eight.
func (t *Type) Size() int64 {
	switch t.Kind {
	case KindVoid:
		return 0
	case KindInt:
		return int64((t.Bits + 7) / 8)
	case KindFloat:
		return int64(t.Bits / 8)
	case KindPtr:
		return 8
	case KindArray:
		return int64(t.Len) * t.Elem.Size()
	default:
		return 0
	}
}

// Align returns the natural alignment of t in bytes. Arrays align to their
// element type; scalars align to their size, capped at eight.
func (t *Type) Align() int64 {
	if t.Kind == KindArray {
		return t.Elem.Align()
	}
	s := t.Size()
	if s > 8 {
		return 8
	}
	if s == 0 {
		return 1
	}
	return s
}

// BitWidth returns the width of the value in bits as counted by the
// vulnerability analyses: integer and float widths are their declared widths,
// pointers are 64 bits wide.
func (t *Type) BitWidth() int {
	switch t.Kind {
	case KindInt, KindFloat:
		return t.Bits
	case KindPtr:
		return 64
	case KindArray:
		return t.Len * t.Elem.BitWidth()
	default:
		return 0
	}
}

// Equal reports structural type equality.
func (t *Type) Equal(o *Type) bool {
	if t == o {
		return true
	}
	if t == nil || o == nil || t.Kind != o.Kind {
		return false
	}
	switch t.Kind {
	case KindVoid:
		return true
	case KindInt, KindFloat:
		return t.Bits == o.Bits
	case KindPtr:
		return t.Elem.Equal(o.Elem)
	case KindArray:
		return t.Len == o.Len && t.Elem.Equal(o.Elem)
	default:
		return false
	}
}

// String renders t in LLVM-like syntax, e.g. "i32", "double", "[8 x i32]",
// "i32*".
func (t *Type) String() string {
	if t == nil {
		return "void"
	}
	switch t.Kind {
	case KindVoid:
		return "void"
	case KindInt:
		return "i" + strconv.Itoa(t.Bits)
	case KindFloat:
		if t.Bits == 32 {
			return "float"
		}
		return "double"
	case KindPtr:
		return t.Elem.String() + "*"
	case KindArray:
		return fmt.Sprintf("[%d x %s]", t.Len, t.Elem)
	default:
		return fmt.Sprintf("badtype(%d)", int(t.Kind))
	}
}
