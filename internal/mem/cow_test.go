package mem

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

func TestForkIsolation(t *testing.T) {
	as := New(DefaultLayout())
	base := DefaultLayout().DataBase
	as.WriteBytes(base, []byte("parent"))

	fork := as.Fork()
	if got := fork.ReadBytes(base, 6); string(got) != "parent" {
		t.Fatalf("fork read = %q, want %q", got, "parent")
	}

	// Writes on either side must not be visible on the other.
	fork.WriteBytes(base, []byte("child!"))
	if got := as.ReadBytes(base, 6); string(got) != "parent" {
		t.Fatalf("parent sees child write: %q", got)
	}
	as.WriteBytes(base, []byte("PARENT"))
	if got := fork.ReadBytes(base, 6); string(got) != "child!" {
		t.Fatalf("child sees parent write: %q", got)
	}
}

func TestForkSharesUntouchedPages(t *testing.T) {
	as := New(DefaultLayout())
	base := DefaultLayout().DataBase
	for i := 0; i < 8; i++ {
		as.WriteBytes(base+uint64(i)*PageSize, []byte{byte(i + 1)})
	}
	fork := as.Fork()
	if fork.DirtyPages() != 0 {
		t.Fatalf("fresh fork has %d dirty pages, want 0", fork.DirtyPages())
	}
	// Touch one page: exactly one COW copy.
	fork.WriteBytes(base, []byte{0xff})
	if fork.DirtyPages() != 1 {
		t.Fatalf("after one write fork has %d dirty pages, want 1", fork.DirtyPages())
	}
	// The other seven pages are still physically shared.
	shared := 0
	for k, p := range as.pages {
		if fork.pages[k] == p {
			shared++
		}
	}
	if shared < 7 {
		t.Fatalf("only %d pages shared after single-page write", shared)
	}
}

func TestForkPreservesAllocatorState(t *testing.T) {
	as := New(DefaultLayout())
	small, err := as.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	big, err := as.Malloc(MmapThreshold)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := as.PushFrame(256); err != nil {
		t.Fatal(err)
	}

	fork := as.Fork()
	if fork.SP() != as.SP() || fork.Version() != as.Version() {
		t.Fatalf("fork sp/version mismatch: sp %#x vs %#x, ver %d vs %d",
			fork.SP(), as.SP(), fork.Version(), as.Version())
	}
	if !fork.Equal(as) {
		t.Fatal("fresh fork not Equal to source")
	}
	// Allocation metadata must be deep-copied: freeing in the fork must not
	// free in the parent.
	if err := fork.Free(small); err != nil {
		t.Fatalf("fork free: %v", err)
	}
	if _, ok := as.AllocSize(small); !ok {
		t.Fatal("fork Free leaked into parent allocs")
	}
	if _, ok := fork.AllocSize(big); !ok {
		t.Fatal("fork lost mmap allocation metadata")
	}
	// VMA history is shared but complete.
	if got := fork.SnapshotAt(as.Version()); len(got) != len(as.SnapshotAt(as.Version())) {
		t.Fatal("fork missing VMA history")
	}
}

// TestForkSharesHistoryCopyOnWrite checks that the allocation map and the
// VMA version history a fork shares stay private to each side: after the
// fork both sides bump the version to the same number with different VMA
// tables and change their allocations, and neither sees the other's.
func TestForkSharesHistoryCopyOnWrite(t *testing.T) {
	as := New(DefaultLayout())
	small, err := as.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	v := as.Version()
	fork := as.Fork()
	grand := fork.Fork() // a fork of a fork shares the same maps

	if _, err := as.PushFrame(16 * PageSize); err != nil {
		t.Fatal(err)
	}
	big, err := as.Malloc(MmapThreshold)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fork.PushFrame(8 * PageSize); err != nil {
		t.Fatal(err)
	}
	if err := fork.Free(small); err != nil {
		t.Fatal(err)
	}
	if as.Version() <= v || fork.Version() != v+1 {
		t.Fatalf("versions %d and %d after the fork at %d", as.Version(), fork.Version(), v)
	}
	if stackVMA(as.SnapshotAt(v+1)) == stackVMA(fork.SnapshotAt(v+1)) {
		t.Fatalf("both sides record the same stack at version %d: %+v", v+1, stackVMA(as.SnapshotAt(v+1)))
	}
	if got, want := stackVMA(fork.SnapshotAt(v+1)), stackVMA(fork.VMAs()); got != want {
		t.Fatalf("fork's version %d stack %+v, want its own %+v", v+1, got, want)
	}
	for name, s := range map[string]*AddressSpace{"parent": as, "fork": fork, "grandchild": grand} {
		for ver := range s.Snapshots() {
			if ver > s.Version() {
				t.Errorf("%s at version %d holds history version %d", name, s.Version(), ver)
			}
		}
	}
	if _, ok := as.AllocSize(small); !ok {
		t.Error("fork's Free reached the parent")
	}
	if _, ok := grand.AllocSize(small); !ok {
		t.Error("fork's Free reached the grandchild")
	}
	if _, ok := fork.AllocSize(big); ok {
		t.Error("parent's Malloc reached the fork")
	}
	if grand.Version() != v || len(grand.Snapshots()) != v {
		t.Errorf("grandchild at version %d with %d history entries, want %d", grand.Version(), len(grand.Snapshots()), v)
	}
}

// stackVMA returns the stack VMA of a VMA table.
func stackVMA(vmas []VMA) VMA {
	for _, v := range vmas {
		if v.Kind == SegStack {
			return v
		}
	}
	return VMA{}
}

func TestEqualZeroPageSemantics(t *testing.T) {
	a := New(DefaultLayout())
	b := New(DefaultLayout())
	base := DefaultLayout().DataBase
	if !a.Equal(b) {
		t.Fatal("two fresh address spaces not Equal")
	}
	// Materializing an all-zero page must not break equality: an absent
	// page and a zero page are the same memory.
	a.WriteBytes(base, []byte{0})
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("zero page broke equality")
	}
	a.WriteBytes(base, []byte{7})
	if a.Equal(b) || b.Equal(a) {
		t.Fatal("differing byte not detected")
	}
	a.WriteBytes(base, []byte{0})
	if !a.Equal(b) {
		t.Fatal("zeroed-back page not Equal again")
	}
}

func TestEqualDetectsStructuralDrift(t *testing.T) {
	a := New(DefaultLayout())
	b := a.Fork()
	if _, err := b.Malloc(32); err != nil {
		t.Fatal(err)
	}
	if a.Equal(b) {
		t.Fatal("Malloc drift (brk/allocs) not detected")
	}
	c := a.Fork()
	c.SetSP(c.SP() - 16)
	if a.Equal(c) {
		t.Fatal("SP drift not detected")
	}
}

func TestReadDoesNotMaterializePages(t *testing.T) {
	as := New(DefaultLayout())
	before := len(as.pages)
	_ = as.ReadBytes(DefaultLayout().DataBase, 3*PageSize)
	if len(as.pages) != before {
		t.Fatalf("read materialized %d pages", len(as.pages)-before)
	}
	if as.ReadUint(DefaultLayout().DataBase, 8) != 0 {
		t.Fatal("unwritten memory not zero")
	}
}

func TestWriteSpanningPages(t *testing.T) {
	as := New(DefaultLayout())
	addr := DefaultLayout().DataBase + PageSize - 3
	payload := []byte{1, 2, 3, 4, 5, 6}
	as.WriteBytes(addr, payload)
	fork := as.Fork()
	if got := fork.ReadBytes(addr, int64(len(payload))); !bytes.Equal(got, payload) {
		t.Fatalf("cross-page read = %v, want %v", got, payload)
	}
	fork.WriteBytes(addr, []byte{9, 9, 9, 9, 9, 9})
	if got := as.ReadBytes(addr, int64(len(payload))); !bytes.Equal(got, payload) {
		t.Fatalf("cross-page COW leaked into parent: %v", got)
	}
}

// TestConcurrentForkWriters exercises the refcount protocol under the race
// detector: a frozen snapshot space is forked by many goroutines that each
// write their own clone, and release it, while the others do the same on
// shared pages and take the pages released clones recycle.
func TestConcurrentForkWriters(t *testing.T) {
	frozen := New(DefaultLayout())
	base := DefaultLayout().DataBase
	for i := 0; i < 16; i++ {
		frozen.WriteBytes(base+uint64(i)*PageSize, []byte{byte(i)})
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			clone := frozen.Fork()
			for i := 0; i < 16; i++ {
				addr := base + uint64(i)*PageSize
				clone.WriteBytes(addr, []byte{byte(g + 100)})
				if got := clone.ReadBytes(addr, 1)[0]; got != byte(g+100) {
					panic(fmt.Sprintf("goroutine %d read back %d", g, got))
				}
			}
			if !clone.ReadBytesEqualsFrozenTail(frozen, base, 16) {
				panic("clone lost untouched tail bytes")
			}
			clone.Release()
		}(g)
	}
	wg.Wait()
	// The frozen source must be untouched.
	for i := 0; i < 16; i++ {
		if got := frozen.ReadBytes(base+uint64(i)*PageSize, 1)[0]; got != byte(i) {
			t.Fatalf("frozen page %d corrupted: %d", i, got)
		}
		if refs := frozen.pages[(base/PageSize)+uint64(i)].refs.Load(); refs != 1 {
			t.Fatalf("frozen page %d: refs %d after every clone was released, want 1", i, refs)
		}
	}
}

// ReadBytesEqualsFrozenTail checks bytes 1.. of each page still match the
// frozen source (offset 0 was overwritten by the test). Test helper.
func (as *AddressSpace) ReadBytesEqualsFrozenTail(frozen *AddressSpace, base uint64, n int) bool {
	for i := 0; i < n; i++ {
		addr := base + uint64(i)*PageSize + 1
		if !bytes.Equal(as.ReadBytes(addr, 16), frozen.ReadBytes(addr, 16)) {
			return false
		}
	}
	return true
}

// TestReleaseRecyclesOnlyUnsharedPages checks Release against the
// refcount protocol. Two children fork a frozen space and one of them,
// after a copy-on-write fault and a fresh page, is released: the frozen
// space and the sibling keep their bytes, the sibling still copies on its
// next write, each page's refs is 1 plus the number of live forks, and a
// fresh materialization that draws a recycled page reads all zero.
func TestReleaseRecyclesOnlyUnsharedPages(t *testing.T) {
	const shared = 4
	// One P, so the pool hands released pages back to this goroutine.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	base := DefaultLayout().DataBase
	frozen := New(DefaultLayout())
	want := make([][]byte, shared)
	for i := range shared {
		want[i] = bytes.Repeat([]byte{byte(i + 1)}, PageSize)
		frozen.WriteBytes(base+uint64(i)*PageSize, want[i])
	}
	checkRefs := func(forks int32) {
		t.Helper()
		for k, p := range frozen.pages {
			if got := p.refs.Load(); got != 1+forks {
				t.Fatalf("page %#x: refs %d with %d live forks, want %d", k*PageSize, got, forks, 1+forks)
			}
		}
	}
	a, b := frozen.Fork(), frozen.Fork()
	checkRefs(2)

	// a copies page 0 on write and materializes page shared+1, filling
	// both with 0xaa.
	junk := bytes.Repeat([]byte{0xaa}, PageSize)
	a.WriteBytes(base, junk)
	a.WriteBytes(base+(shared+1)*PageSize, junk)
	private := map[*page]bool{a.pages[base/PageSize]: true, a.pages[base/PageSize+shared+1]: true}
	a.Release()
	checkRefs(1)
	for i := range shared {
		addr := base + uint64(i)*PageSize
		if !bytes.Equal(frozen.ReadBytes(addr, PageSize), want[i]) || !bytes.Equal(b.ReadBytes(addr, PageSize), want[i]) {
			t.Fatalf("page %d changed under the frozen space or the sibling after Release", i)
		}
	}

	// The sibling's write copies page 0, whatever a recycled page held.
	b.WriteBytes(base+7, []byte{0xee})
	if b.pages[base/PageSize] == frozen.pages[base/PageSize] {
		t.Fatal("sibling wrote a page it shares with the frozen space")
	}
	got, exp := b.ReadBytes(base, PageSize), bytes.Clone(want[0])
	exp[7] = 0xee
	if !bytes.Equal(got, exp) || !bytes.Equal(frozen.ReadBytes(base, PageSize), want[0]) {
		t.Fatal("copy-on-write after Release lost bytes of the frozen page")
	}
	b.Release()
	checkRefs(0)

	// Fresh materializations in a new space read zero past the byte each
	// writes, and in a normal build take the recycled pages.
	fresh := New(DefaultLayout())
	recycled := 0
	for i := range uint64(8) {
		addr := base + (8+i)*PageSize
		fresh.WriteBytes(addr, []byte{1})
		if private[fresh.pages[addr/PageSize]] {
			recycled++
		}
		if rest := fresh.ReadBytes(addr+1, PageSize-1); !bytes.Equal(rest, make([]byte, PageSize-1)) {
			t.Fatalf("fresh page %d reads stale bytes", i)
		}
	}
	if !raceEnabled && recycled == 0 {
		t.Fatal("no fresh page reused a released one")
	}
}
