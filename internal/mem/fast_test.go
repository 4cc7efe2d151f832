package mem

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// twin drives two address spaces through the same operations: fast takes
// every load and store through LoadFast/StoreFast, ref through CheckAccess
// followed by ReadUint/WriteUint, the reference path.
type twin struct {
	t         *testing.T
	fast, ref *AddressSpace
	step      int
}

func (w *twin) load(addr uint64, size int64) (uint64, error) {
	w.t.Helper()
	w.step++
	got, gerr := w.fast.LoadFast(addr, size)
	var want uint64
	werr := w.ref.CheckAccess(addr, size, false)
	if werr == nil {
		want = w.ref.ReadUint(addr, size)
	}
	if fmt.Sprint(gerr) != fmt.Sprint(werr) || got != want {
		w.t.Fatalf("step %d: load %d bytes at %#x = %#x, %v; reference %#x, %v",
			w.step, size, addr, got, gerr, want, werr)
	}
	return got, gerr
}

func (w *twin) store(addr uint64, size int64, v uint64) error {
	w.t.Helper()
	w.step++
	gerr := w.fast.StoreFast(addr, size, v)
	werr := w.ref.CheckAccess(addr, size, true)
	if werr == nil {
		w.ref.WriteUint(addr, size, v)
	}
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		w.t.Fatalf("step %d: store %d bytes at %#x: %v; reference %v", w.step, size, addr, gerr, werr)
	}
	return gerr
}

// same checks that the two spaces agree on everything but their caches:
// VMA table, version and its history, stack pointer, allocations and page
// contents.
func (w *twin) same() {
	w.t.Helper()
	if !w.fast.Equal(w.ref) {
		w.t.Fatalf("step %d: address spaces diverged:\n%s\nreference:\n%s", w.step, w.fast.Maps(), w.ref.Maps())
	}
	fh, rh := w.fast.Snapshots(), w.ref.Snapshots()
	if len(fh) != len(rh) {
		w.t.Fatalf("step %d: %d history versions, reference %d", w.step, len(fh), len(rh))
	}
	for v, vmas := range rh {
		if !slices.Equal(fh[v], vmas) {
			w.t.Fatalf("step %d: history version %d is %v, reference %v", w.step, v, fh[v], vmas)
		}
	}
}

// fork continues both twins on copy-on-write forks; the spaces they were
// forked from are returned frozen.
func (w *twin) fork() (fast, ref *AddressSpace) {
	fast, ref = w.fast, w.ref
	w.fast, w.ref = fast.Fork(), ref.Fork()
	return fast, ref
}

// TestFastPathCOWReadAfterWrite pins the invalidation of the load page
// cache: a read caches a page, a write then copies it (or materializes it),
// and a second read of the same page must see the private copy, while the
// frozen space the copy was forked from keeps the old bytes.
func TestFastPathCOWReadAfterWrite(t *testing.T) {
	w := &twin{t: t, fast: New(DefaultLayout()), ref: New(DefaultLayout())}
	addr := DefaultLayout().DataBase + 8
	w.store(addr, 8, 0x1111)
	frozen, _ := w.fork()
	if v, _ := w.load(addr, 8); v != 0x1111 {
		t.Fatalf("read before COW = %#x", v)
	}
	w.store(addr, 8, 0x2222)
	if v, _ := w.load(addr, 8); v != 0x2222 {
		t.Fatalf("read after COW = %#x, want the private copy 0x2222", v)
	}
	if v, _ := frozen.LoadFast(addr, 8); v != 0x1111 {
		t.Fatalf("frozen space reads %#x after the fork's write, want 0x1111", v)
	}

	// The same through the frozen side's own cache: a read caches the
	// shared page in the parent; the parent writing then COW-faults.
	parent := New(DefaultLayout())
	parent.StoreFast(addr, 8, 0x3333)
	if v, _ := parent.LoadFast(addr, 8); v != 0x3333 {
		t.Fatalf("parent read = %#x", v)
	}
	child := parent.Fork()
	parent.StoreFast(addr, 8, 0x4444)
	if v, _ := parent.LoadFast(addr, 8); v != 0x4444 {
		t.Fatalf("parent read after COW = %#x, want 0x4444", v)
	}
	if v, _ := child.LoadFast(addr, 8); v != 0x3333 {
		t.Fatalf("child read = %#x, want 0x3333", v)
	}

	// A read of a page nothing wrote, then a write that materializes it.
	fresh := addr + 4*PageSize
	if v, _ := w.load(fresh, 4); v != 0 {
		t.Fatalf("unwritten page reads %#x", v)
	}
	w.store(fresh, 4, 0x5555)
	if v, _ := w.load(fresh, 4); v != 0x5555 {
		t.Fatalf("read after materialize = %#x, want 0x5555", v)
	}
}

// TestFastPathPageCacheCollisions alternates loads and stores over ten
// pages that share one entry of each page cache, and their neighbours,
// which take the other entries, so every access evicts; between rounds
// the space forks and goes on writing through pages its caches hold from
// before the fork, which must copy them. Every access is checked against
// the reference path, and every frozen space must keep its bytes.
func TestFastPathPageCacheCollisions(t *testing.T) {
	l := DefaultLayout()
	w := &twin{t: t, fast: New(l), ref: New(l)}
	base, _ := w.fast.Malloc(48 * PageSize)
	if b, _ := w.ref.Malloc(48 * PageSize); b != base || base%PageSize != 0 {
		t.Fatalf("mmap block at %#x and %#x, want one page-aligned address", base, b)
	}
	addr := func(k, neighbour int) uint64 {
		return base + uint64(4*k+neighbour)*PageSize + uint64(8*k)
	}
	val := func(round, k, neighbour int) uint64 { return uint64(round<<16 | k<<8 | neighbour) }
	type frozen struct {
		fast  *AddressSpace
		round int
	}
	var frozens []frozen
	for round := range 6 {
		for k := range 10 {
			for n := range 2 {
				w.store(addr(k, n), 8, val(round, k, n))
				if k > 0 {
					if got, _ := w.load(addr(k-1, n), 8); got != val(round, k-1, n) {
						t.Fatalf("round %d: page %d reads %#x, want %#x", round, k-1, got, val(round, k-1, n))
					}
				}
			}
		}
		for k := range 10 {
			w.load(addr(k, 1), 4)
			w.store(addr(k, 0), 4, val(round, k, 2))
		}
		w.same()
		// Continue on the fork or on the space it was forked from; the
		// other side is frozen with this round's bytes.
		parentFast, parentRef := w.fork()
		f := frozen{fast: parentFast, round: round}
		if round%2 == 1 {
			f.fast = w.fast
			w.fast, w.ref = parentFast, parentRef
		}
		frozens = append(frozens, f)
	}
	for _, f := range frozens {
		for k := range 10 {
			want := val(f.round, k, 2)
			if got, err := f.fast.LoadFast(addr(k, 0), 8); err != nil || got != want {
				t.Fatalf("space frozen after round %d: page %d reads %#x, %v; want %#x", f.round, k, got, err, want)
			}
		}
	}
}

// TestFastPathMatchesReference runs random interleavings of fast loads and
// stores with malloc, mmap-sized allocations, frees of either, frame
// pushes and pops, stack growth and forks followed by copy-on-write
// writes, and checks every
// access against the reference path on a twin address space: the same
// values, the same AccessError text and the same VMA tables.
func TestFastPathMatchesReference(t *testing.T) {
	for seed := range int64(8) {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			fastPathWalk(t, rand.New(rand.NewSource(seed)), 4000)
		})
	}
}

func fastPathWalk(t *testing.T, rng *rand.Rand, steps int) {
	l := DefaultLayout()
	w := &twin{t: t, fast: New(l), ref: New(l)}
	blocks := []uint64{l.DataBase, l.RODataBase, l.TextBase}
	var frames []uint64
	sizes := []int64{1, 2, 3, 4, 5, 7, 8}
	// pick returns an address near something interesting: the last
	// address picked (so reads, writes and forks meet on one page), an
	// allocated block, the stack pointer, a page boundary, a segment's end,
	// or nowhere mapped at all.
	var last uint64
	pick := func() uint64 {
		switch rng.Intn(8) {
		case 6, 7:
			last += uint64(rng.Intn(16))
		case 0, 1:
			last = blocks[rng.Intn(len(blocks))] + uint64(rng.Intn(2*PageSize))
		case 2:
			last = w.fast.SP() + uint64(rng.Intn(256))
		case 3:
			// Below the stack: within the guard gap grows the stack,
			// beyond it faults.
			last = w.fast.SP() - uint64(rng.Intn(2*StackGuardGap))
		case 4:
			b := blocks[rng.Intn(len(blocks))]
			last = (b+uint64(rng.Intn(4*PageSize)))&^(PageSize-1) - uint64(rng.Intn(8))
		default:
			last = uint64(rng.Int63n(1 << 47))
		}
		return last
	}
	for range steps {
		switch r := rng.Intn(100); {
		case r < 40:
			w.load(pick(), sizes[rng.Intn(len(sizes))])
		case r < 80:
			w.store(pick(), sizes[rng.Intn(len(sizes))], rng.Uint64())
		case r < 86:
			size := uint64(rng.Intn(512) + 1)
			if rng.Intn(8) == 0 {
				size = MmapThreshold + uint64(rng.Intn(4*PageSize))
			}
			a, _ := w.fast.Malloc(size)
			b, _ := w.ref.Malloc(size)
			if a != b {
				t.Fatalf("malloc(%d) = %#x, reference %#x", size, a, b)
			}
			blocks = append(blocks, a)
		case r < 89:
			// Free a block (or free it again, or free a segment start,
			// which is no block): freed blocks stay mapped, and pick
			// keeps reaching them, mmap-sized ones included.
			b := blocks[rng.Intn(len(blocks))]
			aerr, berr := w.fast.Free(b), w.ref.Free(b)
			if fmt.Sprint(aerr) != fmt.Sprint(berr) {
				t.Fatalf("free(%#x): %v; reference %v", b, aerr, berr)
			}
		case r < 94:
			size := uint64(rng.Intn(3 * PageSize))
			a, aerr := w.fast.PushFrame(size)
			b, berr := w.ref.PushFrame(size)
			if a != b || fmt.Sprint(aerr) != fmt.Sprint(berr) {
				t.Fatalf("push frame %d = %#x, %v; reference %#x, %v", size, a, aerr, b, berr)
			}
			if aerr == nil {
				frames = append(frames, w.fast.SP()+(size+15)&^15)
			}
		case r < 97:
			if n := len(frames); n > 0 {
				w.fast.PopFrame(frames[n-1])
				w.ref.PopFrame(frames[n-1])
				frames = frames[:n-1]
			}
		default:
			// Either side of a fork goes on writing: the fork, or the
			// space it was forked from (whose cached page is now shared).
			parentFast, parentRef := w.fork()
			if rng.Intn(2) == 0 {
				w.fast, w.ref = parentFast, parentRef
			}
		}
		w.same()
	}
}
