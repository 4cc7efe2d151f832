// Package mem simulates the memory of a 64-bit Linux process: a sparse
// page-granular address space organized into virtual memory areas (VMAs) for
// text, data, heap, mmap arena and stack, with a brk/mmap-style heap
// allocator and Linux's stack auto-extension semantics.
//
// The package is the single source of truth for "would this access fault?":
// both the interpreter (ground truth for fault-injection experiments) and
// the ePVF crash model (the prediction) call Resolve on the same VMA
// tables, mirroring how the paper's crash model encodes the Linux kernel's
// do_page_fault/expand_stack logic (DSN'16 §III-D, Fig. 4).
package mem

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
)

// PageSize is the simulated page size in bytes.
const PageSize = 4096

// StackGuardGap is the window below the stack pointer within which Linux
// treats an access under the stack VMA as a legal stack-extension access:
// 64 KiB for a maximal x86 string instruction plus 128 bytes of red zone
// (the "ESP - 65536 - 128" rule in the paper's Algorithm 3).
const StackGuardGap = 65536 + 128

// Perm is a VMA permission bit set.
type Perm uint8

// Permission bits.
const (
	PermRead Perm = 1 << iota
	PermWrite
	PermExec
)

// String renders the permissions /proc/self/maps style.
func (p Perm) String() string {
	b := []byte("---")
	if p&PermRead != 0 {
		b[0] = 'r'
	}
	if p&PermWrite != 0 {
		b[1] = 'w'
	}
	if p&PermExec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// SegKind classifies a VMA.
type SegKind int

// Segment kinds. Enums start at one.
const (
	SegText SegKind = iota + 1
	SegROData
	SegData
	SegHeap
	SegMmap
	SegStack
)

var segNames = map[SegKind]string{
	SegText: "text", SegROData: "rodata", SegData: "data",
	SegHeap: "heap", SegMmap: "mmap", SegStack: "stack",
}

// String returns the segment name.
func (k SegKind) String() string {
	if s, ok := segNames[k]; ok {
		return s
	}
	return fmt.Sprintf("seg(%d)", int(k))
}

// VMA is one virtual memory area: the half-open byte range [Start, End).
type VMA struct {
	Start, End uint64
	Perm       Perm
	Kind       SegKind
}

// Contains reports whether addr falls inside the VMA.
func (v VMA) Contains(addr uint64) bool { return addr >= v.Start && addr < v.End }

// String renders the VMA /proc/self/maps style.
func (v VMA) String() string {
	return fmt.Sprintf("%012x-%012x %s [%s]", v.Start, v.End, v.Perm, v.Kind)
}

// Layout fixes the base addresses of the simulated process image. All
// fields are page-aligned.
type Layout struct {
	TextBase   uint64
	RODataBase uint64
	DataBase   uint64
	HeapBase   uint64
	MmapBase   uint64
	StackTop   uint64
	// StackRLimit is the maximum stack size (RLIMIT_STACK), 8 MiB by
	// default.
	StackRLimit uint64
	// InitialStackPages is how many pages of stack are mapped at startup.
	InitialStackPages int
}

// DefaultLayout returns the canonical x86-64 Linux-like layout used
// throughout the experiments.
func DefaultLayout() Layout {
	return Layout{
		TextBase:          0x0000_0040_0000,
		RODataBase:        0x0000_0060_0000,
		DataBase:          0x0000_0070_0000,
		HeapBase:          0x0000_0090_0000,
		MmapBase:          0x7f00_0000_0000,
		StackTop:          0x7fff_ffde_0000,
		StackRLimit:       8 << 20,
		InitialStackPages: 4,
	}
}

// Jitter returns a copy of the layout with the heap base, mmap base and
// stack top independently shifted by a random page-aligned offset in
// [0, window). This models the run-to-run segment-boundary drift (ASLR,
// allocator nondeterminism) that the paper identifies as the cause of its
// recall/precision gap (§IV-B): the ePVF model profiles one layout while
// fault-injection runs execute under another.
func (l Layout) Jitter(rng *rand.Rand, window uint64) Layout {
	if window == 0 {
		return l
	}
	pages := window / PageSize
	if pages == 0 {
		pages = 1
	}
	shift := func() uint64 { return uint64(rng.Int63n(int64(pages))) * PageSize }
	j := l
	j.HeapBase += shift()
	j.MmapBase += shift()
	j.StackTop -= shift()
	return j
}

// AccessError reports an access that the simulated MMU rejects. It is
// translated by the interpreter into the SIGSEGV exception.
type AccessError struct {
	Addr  uint64
	Size  int64
	Write bool
	// Reason is a short human-readable cause ("unmapped", "below stack
	// guard", "write to read-only", "stack rlimit").
	Reason string
}

// Error implements error.
func (e *AccessError) Error() string {
	op := "read"
	if e.Write {
		op = "write"
	}
	return fmt.Sprintf("segmentation fault: %s of %d bytes at %#x (%s)", op, e.Size, e.Addr, e.Reason)
}

// page is one refcounted copy-on-write page. refs counts the address
// spaces holding it; a write through an address space that is not the
// sole holder first copies the page (write-fault semantics). An absent page
// reads as zeroes, so an all-zero page and a missing page are
// indistinguishable to programs.
type page struct {
	refs atomic.Int32
	data [PageSize]byte
}

// pages recycles the pages Release drops. A pooled page holds the bytes of
// its last holder.
var pages sync.Pool

// newPage returns a page held once, from the pool when it has one; a
// pooled page's bytes are stale unless zero is set.
func newPage(zero bool) *page {
	p, _ := pages.Get().(*page)
	switch {
	case p == nil:
		p = new(page)
	case zero:
		p.data = [PageSize]byte{}
	}
	p.refs.Store(1)
	return p
}

// AddressSpace is a simulated process address space.
type AddressSpace struct {
	layout Layout
	vmas   []VMA // sorted by Start, non-overlapping
	pages  map[uint64]*page

	sp       uint64 // current stack pointer
	brk      uint64 // current heap break (end of heap VMA)
	mmapNext uint64

	allocs map[uint64]uint64 // malloc'd block start -> size

	// version increments whenever the VMA table changes; trace records it
	// so the crash model can replay the exact segment boundaries seen at
	// each access.
	version   int
	snapshots map[int][]VMA

	// dirtied counts pages made privately writable in this address space:
	// fresh page materializations plus copy-on-write faults. Forks start
	// at zero, so the delta between two points is the snapshot "dirty
	// page" cost.
	dirtied int64

	// Two-entry VMA-bounds caches for the LoadFast/StoreFast hot path, one
	// pair for loads and one for stores (stack and heap/global accesses
	// alternate, so one entry would thrash). Each entry caches the [lo, hi)
	// of a VMA that satisfied a recent fast access, and stays valid for
	// the life of the address space. That holds only while the VMA table
	// never shrinks: a VMA may grow or a new one be appended, but none is
	// ever unmapped, narrowed or loses a permission (Free keeps mmap
	// segments mapped). Any change that breaks this must clear both
	// caches. The zero value is invalid (hi == 0 admits no address),
	// which is why Fork need not copy these.
	fastR, fastW [2]vmaBounds

	// snapShared and allocsShared mark snapshots and allocs as shared
	// with a fork: after a Fork, either side copies a shared map before
	// its first change to it (bump for snapshots, Malloc or Free for
	// allocs). They are atomic because concurrent forks of one frozen
	// space all set them.
	snapShared, allocsShared atomic.Bool

	// rcache caches the pages of recent fast loads, direct-mapped by page
	// number: a set entry e holds pages[e.key], or &zeroPage when that
	// page is absent. writablePage clears the entry of its key at both of
	// its page-map writes (materialize and copy-on-write), the only points
	// where pages[key] can change, so a set entry is always what the map
	// holds. wcache caches, in the same shape, pages writablePage returned;
	// an entry is used only while its page's refs is 1, the same test of
	// sole ownership writablePage makes, so a Fork (which raises refs)
	// disables it without touching it. Fork need not copy either cache.
	rcache, wcache [pageWays]pageEntry
}

// pageWays is the number of entries in each page cache.
const pageWays = 4

// pageEntry is one page-cache entry; p == nil marks it empty.
type pageEntry struct {
	key uint64
	p   *page
}

// vmaBounds is one entry of the fast-path VMA caches.
type vmaBounds struct{ lo, hi uint64 }

// hit reports whether [addr, last] lies inside one of the entries.
func hit(c *[2]vmaBounds, addr, last uint64) bool {
	if last < addr {
		return false
	}
	for i := range c {
		if addr >= c[i].lo && last < c[i].hi {
			return true
		}
	}
	return false
}

// install makes [lo, hi) the newest entry, keeping the previous newest
// as the other.
func install(c *[2]vmaBounds, lo, hi uint64) {
	c[1] = c[0]
	c[0] = vmaBounds{lo: lo, hi: hi}
}

// New creates an address space with the given layout and reserves the text,
// read-only data, data, heap and stack VMAs. textSize and dataSize are
// rounded up to whole pages.
func New(l Layout) *AddressSpace {
	as := &AddressSpace{
		layout:    l,
		pages:     make(map[uint64]*page),
		allocs:    make(map[uint64]uint64),
		mmapNext:  l.MmapBase,
		snapshots: make(map[int][]VMA),
	}
	stackStart := l.StackTop - uint64(l.InitialStackPages)*PageSize
	as.vmas = []VMA{
		{Start: l.TextBase, End: l.TextBase + 16*PageSize, Perm: PermRead | PermExec, Kind: SegText},
		{Start: l.RODataBase, End: l.RODataBase + 16*PageSize, Perm: PermRead, Kind: SegROData},
		{Start: l.DataBase, End: l.DataBase + 16*PageSize, Perm: PermRead | PermWrite, Kind: SegData},
		{Start: l.HeapBase, End: l.HeapBase, Perm: PermRead | PermWrite, Kind: SegHeap},
		{Start: stackStart, End: l.StackTop, Perm: PermRead | PermWrite, Kind: SegStack},
	}
	as.sp = l.StackTop - 16 // small bias like the kernel's initial frame
	as.brk = l.HeapBase
	as.bump()
	return as
}

// Layout returns the layout the address space was created with.
func (as *AddressSpace) Layout() Layout { return as.layout }

func (as *AddressSpace) bump() {
	if as.snapShared.Load() {
		as.snapshots = copyMap(as.snapshots)
		as.snapShared.Store(false)
	}
	as.version++
	cp := make([]VMA, len(as.vmas))
	copy(cp, as.vmas)
	as.snapshots[as.version] = cp
}

// copyMap returns a copy of m with room for one more entry.
func copyMap[K comparable, V any](m map[K]V) map[K]V {
	cp := make(map[K]V, len(m)+1)
	for k, v := range m {
		cp[k] = v
	}
	return cp
}

// share marks the allocation map and the version history as shared with
// a fork.
func (as *AddressSpace) share() {
	as.snapShared.Store(true)
	as.allocsShared.Store(true)
}

// ownAllocs makes the allocation map private before a change to it.
func (as *AddressSpace) ownAllocs() {
	if as.allocsShared.Load() {
		as.allocs = copyMap(as.allocs)
		as.allocsShared.Store(false)
	}
}

// Version returns the current VMA-table version.
func (as *AddressSpace) Version() int { return as.version }

// SnapshotAt returns the VMA table as of the given version. The returned
// slice must not be modified.
func (as *AddressSpace) SnapshotAt(version int) []VMA { return as.snapshots[version] }

// Snapshots returns the full version -> VMA-table history of the address
// space. The returned map and slices must not be modified.
func (as *AddressSpace) Snapshots() map[int][]VMA { return as.snapshots }

// EnsureSegmentSize grows the VMA of the given kind to hold at least size
// bytes from its start, rounding up to whole pages. Used by the program
// loader to fit globals into the data segments.
func (as *AddressSpace) EnsureSegmentSize(kind SegKind, size uint64) {
	end := uint64(0)
	for i := range as.vmas {
		if as.vmas[i].Kind == kind {
			end = as.vmas[i].Start + (size+PageSize-1)&^(PageSize-1)
			if end > as.vmas[i].End {
				as.vmas[i].End = end
				if kind == SegHeap && end > as.brk {
					as.brk = end
				}
				as.bump()
			}
			return
		}
	}
}

// VMAs returns a copy of the current VMA table.
func (as *AddressSpace) VMAs() []VMA {
	cp := make([]VMA, len(as.vmas))
	copy(cp, as.vmas)
	return cp
}

// SP returns the current simulated stack pointer.
func (as *AddressSpace) SP() uint64 { return as.sp }

// SetSP sets the simulated stack pointer (used when entering/leaving
// frames).
func (as *AddressSpace) SetSP(sp uint64) { as.sp = sp }

func (as *AddressSpace) findVMA(addr uint64) (int, bool) {
	i := sort.Search(len(as.vmas), func(i int) bool { return as.vmas[i].End > addr })
	if i < len(as.vmas) && as.vmas[i].Contains(addr) {
		return i, true
	}
	return i, false
}

// stackVMA returns the index of the stack VMA.
func (as *AddressSpace) stackVMA() int {
	for i := range as.vmas {
		if as.vmas[i].Kind == SegStack {
			return i
		}
	}
	return -1
}

// Resolve decides whether an access to addr is legal under a given VMA
// table and stack pointer, applying Linux's stack-extension rule when
// stackRule is true: an access below the stack VMA is still legal when it is
// no lower than sp - StackGuardGap and the resulting stack stays within
// rlimit. It returns the valid address range [lo, hi) that governs addr —
// the range the propagation model turns into crash-bit ranges — and whether
// the access itself is legal.
//
// Resolve is a pure function of its arguments so the crash model can call it
// on recorded snapshots without touching a live address space.
func Resolve(vmas []VMA, sp uint64, stackTop, stackRLimit uint64, addr uint64, write, stackRule bool) (lo, hi uint64, ok bool) {
	floor := stackTop - stackRLimit
	// stackLo is the lowest address a stack-governed access may touch: the
	// guard window below SP, clamped by the rlimit (paper Alg. 3 lines
	// 6-9). Without the stack rule the naive model allows only the mapped
	// VMA itself.
	stackLo := func(vmaStart uint64) uint64 {
		if !stackRule {
			return vmaStart
		}
		lo := floor
		if guard := sp - StackGuardGap; guard > lo {
			lo = guard
		}
		if vmaStart < lo {
			// Already-mapped pages below the guard never fault.
			lo = vmaStart
		}
		return lo
	}
	var stack *VMA
	for i := range vmas {
		v := &vmas[i]
		if v.Kind == SegStack {
			stack = v
		}
		if v.Contains(addr) {
			if write && v.Perm&PermWrite == 0 {
				return v.Start, v.End, false
			}
			if v.Kind == SegStack {
				return stackLo(v.Start), v.End, true
			}
			return v.Start, v.End, true
		}
	}
	// Not inside any VMA. The only rescue is the growable stack.
	if stack != nil && addr < stack.Start {
		lo := stackLo(stack.Start)
		if stackRule && addr >= lo {
			return lo, stack.End, true
		}
		return lo, stack.End, false
	}
	return 0, 0, false
}

// ValidRange returns the [lo, hi) range of addresses around addr that would
// not fault, given a VMA snapshot and stack pointer. For an addr governed by
// the stack it accounts for the extension rule. ok is false when addr
// itself would fault.
func (as *AddressSpace) ValidRange(addr uint64, write bool) (lo, hi uint64, ok bool) {
	return Resolve(as.vmas, as.sp, as.layout.StackTop, as.layout.StackRLimit, addr, write, true)
}

// CheckAccess validates an access of size bytes at addr, growing the stack
// if Linux would. It returns nil when legal and an *AccessError otherwise.
func (as *AddressSpace) CheckAccess(addr uint64, size int64, write bool) error {
	if size <= 0 {
		size = 1
	}
	last := addr + uint64(size) - 1
	for _, a := range []uint64{addr, last} {
		if err := as.checkOne(a, size, write); err != nil {
			return err
		}
	}
	return nil
}

func (as *AddressSpace) checkOne(addr uint64, size int64, write bool) error {
	if i, ok := as.findVMA(addr); ok {
		if write && as.vmas[i].Perm&PermWrite == 0 {
			return &AccessError{Addr: addr, Size: size, Write: write, Reason: "write to read-only"}
		}
		return nil
	}
	// Stack extension path.
	si := as.stackVMA()
	if si >= 0 && addr < as.vmas[si].Start {
		floor := as.layout.StackTop - as.layout.StackRLimit
		guard := as.sp - StackGuardGap
		switch {
		case addr < floor:
			return &AccessError{Addr: addr, Size: size, Write: write, Reason: "stack rlimit"}
		case addr < guard:
			return &AccessError{Addr: addr, Size: size, Write: write, Reason: "below stack guard"}
		default:
			newStart := addr &^ (PageSize - 1)
			as.vmas[si].Start = newStart
			as.bump()
			return nil
		}
	}
	return &AccessError{Addr: addr, Size: size, Write: write, Reason: "unmapped"}
}

// writablePage returns a page for addr that this address space owns
// exclusively, materializing a zero page or performing the copy-on-write
// fault as needed.
//
// The refcount protocol makes concurrent forks and writes safe without a
// lock: every address space holds one reference per page it maps, a page
// is only ever forked from a frozen (never-written) address space, and
// that space keeps its own reference because it is never released. A
// load of 1 therefore proves sole ownership — no frozen space references
// the page, so no concurrent Fork can be incrementing it.
func (as *AddressSpace) writablePage(addr uint64) *page {
	key := addr / PageSize
	w := &as.wcache[key%pageWays]
	if w.p != nil && w.key == key && w.p.refs.Load() == 1 {
		return w.p
	}
	p := as.pages[key]
	switch {
	case p == nil:
		p = newPage(true)
		as.pages[key] = p
		as.dropRead(key)
		as.dirtied++
	case p.refs.Load() > 1:
		cp := newPage(false)
		cp.data = p.data
		p.refs.Add(-1)
		p = cp
		as.pages[key] = p
		as.dropRead(key)
		as.dirtied++
	}
	*w = pageEntry{key: key, p: p}
	return p
}

// dropRead clears the load cache's entry for page key, if it holds one.
func (as *AddressSpace) dropRead(key uint64) {
	if r := &as.rcache[key%pageWays]; r.key == key {
		r.p = nil
	}
}

// WriteBytes copies b into memory at addr. The caller must have validated
// the access.
func (as *AddressSpace) WriteBytes(addr uint64, b []byte) {
	for len(b) > 0 {
		p := as.writablePage(addr)
		off := addr % PageSize
		n := copy(p.data[off:], b)
		b = b[n:]
		addr += uint64(n)
	}
}

// ReadBytes copies n bytes at addr into a fresh slice. Unwritten bytes
// read as zero; reads never materialize pages, so forked address spaces
// stay sparse.
func (as *AddressSpace) ReadBytes(addr uint64, n int64) []byte {
	out := make([]byte, n)
	dst := out
	for len(dst) > 0 {
		off := addr % PageSize
		c := uint64(PageSize - off)
		if c > uint64(len(dst)) {
			c = uint64(len(dst))
		}
		if p := as.pages[addr/PageSize]; p != nil {
			copy(dst[:c], p.data[off:off+c])
		}
		dst = dst[c:]
		addr += c
	}
	return out
}

// Fork returns a copy-on-write clone of the address space: the VMA table
// and the registers of the allocator (sp, brk, mmap cursor) are copied;
// data pages are shared with their refcounts incremented, so the fork
// costs O(mapped pages) pointer copies and no page data moves until one
// side writes. The allocation metadata and the VMA version history (whose
// slices are immutable once recorded) are shared as whole maps, and
// whichever side changes one next copies it first.
//
// Fork must only be called on an address space that is no longer written
// (a frozen snapshot) or from the goroutine that owns it; the returned
// clone is independently writable.
func (as *AddressSpace) Fork() *AddressSpace {
	cp := &AddressSpace{
		layout:    as.layout,
		vmas:      append([]VMA(nil), as.vmas...),
		pages:     make(map[uint64]*page, len(as.pages)),
		sp:        as.sp,
		brk:       as.brk,
		mmapNext:  as.mmapNext,
		allocs:    as.allocs,
		version:   as.version,
		snapshots: as.snapshots,
	}
	as.share()
	cp.share()
	for k, p := range as.pages {
		p.refs.Add(1)
		cp.pages[k] = p
	}
	return cp
}

// Release gives back the address space's page references, after which
// the space must not be used. A page no other space holds returns to the
// pool that materializations and copy-on-write faults draw from, so a run
// that releases its fork leaves the pages it dirtied to the next run.
// Never release a frozen space that may still be forked: its references
// keep its pages from being recycled under its forks.
func (as *AddressSpace) Release() {
	for _, p := range as.pages {
		if p.refs.Add(-1) == 0 {
			pages.Put(p)
		}
	}
	as.pages = nil
	as.rcache, as.wcache = [pageWays]pageEntry{}, [pageWays]pageEntry{}
}

// DirtyPages returns the number of pages privately materialized or
// copy-on-write faulted in this address space since it was created (or
// forked). Observability for the snapshot subsystem.
func (as *AddressSpace) DirtyPages() int64 { return as.dirtied }

var zeroPageData [PageSize]byte

func pageEqual(a, b *page) bool {
	switch {
	case a == b:
		return true
	case a == nil:
		return b.data == zeroPageData
	case b == nil:
		return a.data == zeroPageData
	default:
		return a.data == b.data
	}
}

// Equal reports whether two address spaces are observably identical: same
// layout, VMA table, stack pointer, heap state, allocation metadata,
// version history position, and byte-for-byte page contents (an absent
// page equals an all-zero page). Shared COW pages compare by pointer, so
// comparing a run against a snapshot it was forked from costs
// O(mapped pages) pointer compares plus a byte compare of each page that
// diverged.
func (as *AddressSpace) Equal(other *AddressSpace) bool {
	if as.layout != other.layout || as.sp != other.sp || as.brk != other.brk ||
		as.mmapNext != other.mmapNext || as.version != other.version {
		return false
	}
	if len(as.vmas) != len(other.vmas) {
		return false
	}
	for i := range as.vmas {
		if as.vmas[i] != other.vmas[i] {
			return false
		}
	}
	if len(as.allocs) != len(other.allocs) {
		return false
	}
	for k, v := range as.allocs {
		if ov, ok := other.allocs[k]; !ok || ov != v {
			return false
		}
	}
	for k, p := range as.pages {
		if !pageEqual(p, other.pages[k]) {
			return false
		}
	}
	for k, p := range other.pages {
		if _, ok := as.pages[k]; !ok && !pageEqual(nil, p) {
			return false
		}
	}
	return true
}

// WriteUint stores the low size bytes of v at addr, little-endian.
func (as *AddressSpace) WriteUint(addr uint64, size int64, v uint64) {
	var buf [8]byte
	for i := int64(0); i < size; i++ {
		buf[i] = byte(v >> (8 * uint(i)))
	}
	as.WriteBytes(addr, buf[:size])
}

// ReadUint loads size bytes at addr little-endian into the low bits of the
// result.
func (as *AddressSpace) ReadUint(addr uint64, size int64) uint64 {
	b := as.ReadBytes(addr, size)
	var v uint64
	for i := int64(0); i < size; i++ {
		v |= uint64(b[i]) << (8 * uint(i))
	}
	return v
}

// LoadFast validates and performs a little-endian load in one pass. It is
// observably identical to CheckAccess(addr, size, false) followed by
// ReadUint, but skips the binary VMA search when the access lands in one
// of the two segments recent fast loads hit, skips the page-map lookup
// when its page sits in the load page cache, and reads whole words in place
// instead of through an allocated slice.
// Loads never require read permission (checkOne does not test it), so a
// cache hit needs only a bounds check.
func (as *AddressSpace) LoadFast(addr uint64, size int64) (uint64, error) {
	if size <= 0 {
		size = 1
	}
	last := addr + uint64(size) - 1
	if !hit(&as.fastR, addr, last) {
		if err := as.CheckAccess(addr, size, false); err != nil {
			return 0, err
		}
		// CheckAccess may have grown the stack, so re-resolve the
		// governing VMA for the refreshed cache entry.
		if i, ok := as.findVMA(addr); ok && last < as.vmas[i].End {
			install(&as.fastR, as.vmas[i].Start, as.vmas[i].End)
		}
	}
	off := addr % PageSize
	if off+uint64(size) > PageSize {
		return as.ReadUint(addr, size), nil
	}
	key := addr / PageSize
	r := &as.rcache[key%pageWays]
	p := r.p
	if p == nil || r.key != key {
		if p = as.pages[key]; p == nil {
			p = &zeroPage
		}
		*r = pageEntry{key: key, p: p}
	}
	b := p.data[off:]
	switch size {
	case 1:
		return uint64(b[0]), nil
	case 2:
		return uint64(binary.LittleEndian.Uint16(b)), nil
	case 4:
		return uint64(binary.LittleEndian.Uint32(b)), nil
	case 8:
		return binary.LittleEndian.Uint64(b), nil
	}
	var v uint64
	for i := int64(0); i < size; i++ {
		v |= uint64(b[i]) << (8 * uint(i))
	}
	return v, nil
}

// zeroPage stands in for an absent page in the load page cache; it is
// never written, since every write goes through writablePage.
var zeroPage page

// StoreFast validates and performs a little-endian store in one pass —
// the write counterpart of LoadFast. The cached ranges are only installed
// for writable VMAs, so a hit implies write permission.
func (as *AddressSpace) StoreFast(addr uint64, size int64, v uint64) error {
	if size <= 0 {
		size = 1
	}
	last := addr + uint64(size) - 1
	if !hit(&as.fastW, addr, last) {
		if err := as.CheckAccess(addr, size, true); err != nil {
			return err
		}
		if i, ok := as.findVMA(addr); ok && last < as.vmas[i].End && as.vmas[i].Perm&PermWrite != 0 {
			install(&as.fastW, as.vmas[i].Start, as.vmas[i].End)
		}
	}
	off := addr % PageSize
	if off+uint64(size) > PageSize {
		as.WriteUint(addr, size, v)
		return nil
	}
	b := as.writablePage(addr).data[off:]
	switch size {
	case 1:
		b[0] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	case 8:
		binary.LittleEndian.PutUint64(b, v)
	default:
		for i := int64(0); i < size; i++ {
			b[i] = byte(v >> (8 * uint(i)))
		}
	}
	return nil
}

// MmapThreshold is the allocation size above which Malloc places the block
// in the mmap arena instead of growing the brk heap, as glibc does
// (M_MMAP_THRESHOLD, 128 KiB by default).
const MmapThreshold = 128 << 10

// Malloc allocates size bytes (16-byte aligned) and returns the block
// address. Small blocks grow the heap VMA brk-style; blocks of
// MmapThreshold bytes or more get their own page-aligned mapping in the
// mmap arena, so large allocations live in a separate segment with its own
// boundaries — exactly the segment diversity the crash model must handle.
func (as *AddressSpace) Malloc(size uint64) (uint64, error) {
	if size == 0 {
		size = 1
	}
	const align = 16
	size = (size + align - 1) &^ (align - 1)
	if size >= MmapThreshold {
		return as.mmapAlloc(size)
	}
	addr := as.brk
	as.brk += size
	for i := range as.vmas {
		if as.vmas[i].Kind == SegHeap {
			newEnd := (as.brk + PageSize - 1) &^ (PageSize - 1)
			if newEnd != as.vmas[i].End {
				as.vmas[i].End = newEnd
				as.bump()
			}
			break
		}
	}
	as.ownAllocs()
	as.allocs[addr] = size
	return addr, nil
}

// mmapAlloc creates a dedicated VMA for a large allocation, with an
// unmapped guard page between neighbours (so off-by-one overruns fault,
// like real mmap'd blocks).
func (as *AddressSpace) mmapAlloc(size uint64) (uint64, error) {
	addr := as.mmapNext
	mapped := (size + PageSize - 1) &^ (PageSize - 1)
	as.mmapNext += mapped + PageSize // guard page
	as.vmas = append(as.vmas, VMA{
		Start: addr,
		End:   addr + mapped,
		Perm:  PermRead | PermWrite,
		Kind:  SegMmap,
	})
	sort.Slice(as.vmas, func(i, j int) bool { return as.vmas[i].Start < as.vmas[j].Start })
	as.bump()
	as.ownAllocs()
	as.allocs[addr] = size
	return addr, nil
}

// Free releases a block previously returned by Malloc. Freeing an unknown
// address returns an error (the interpreter maps it to the Abort exception,
// like glibc's "invalid pointer" abort).
func (as *AddressSpace) Free(addr uint64) error {
	if _, ok := as.allocs[addr]; !ok {
		return fmt.Errorf("free of unallocated address %#x", addr)
	}
	as.ownAllocs()
	delete(as.allocs, addr)
	return nil
}

// AllocSize returns the size of the malloc block at addr, if any.
func (as *AddressSpace) AllocSize(addr uint64) (uint64, bool) {
	s, ok := as.allocs[addr]
	return s, ok
}

// PushFrame reserves size bytes of stack (16-byte aligned) and returns the
// new frame base (the lowest address of the frame). It grows the stack VMA
// as the kernel would on a push; exceeding the rlimit returns an
// *AccessError.
func (as *AddressSpace) PushFrame(size uint64) (uint64, error) {
	const align = 16
	size = (size + align - 1) &^ (align - 1)
	newSP := as.sp - size
	floor := as.layout.StackTop - as.layout.StackRLimit
	// Compare the size, not newSP: a frame larger than SP would wrap.
	if size > as.sp-floor {
		return 0, &AccessError{Addr: newSP, Size: int64(size), Write: true, Reason: "stack rlimit"}
	}
	as.sp = newSP
	si := as.stackVMA()
	if si >= 0 && newSP < as.vmas[si].Start {
		as.vmas[si].Start = newSP &^ (PageSize - 1)
		as.bump()
	}
	return newSP, nil
}

// PopFrame restores the stack pointer saved before the matching PushFrame.
func (as *AddressSpace) PopFrame(oldSP uint64) { as.sp = oldSP }

// Maps renders the current VMA table in /proc/self/maps style — the
// interface the paper's run-time probe reads.
func (as *AddressSpace) Maps() string {
	s := ""
	for _, v := range as.vmas {
		s += v.String() + "\n"
	}
	return s
}
