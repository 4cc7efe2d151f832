//go:build !race

package mem

import "testing"

// forkAllocs is what a Fork allocates for an address space with at most
// eight mapped pages: the address space, its VMA table and its page map.
const forkAllocs = 4

// TestForkAllocs pins the allocations of one Fork. The allocation map and
// the VMA version history are shared with the fork until one side changes
// them, so neither their size nor their length costs anything.
func TestForkAllocs(t *testing.T) {
	for _, n := range []int{1, 16, 256} {
		as := New(DefaultLayout())
		for range n {
			if _, err := as.Malloc(64); err != nil {
				t.Fatal(err)
			}
			if _, err := as.PushFrame(PageSize); err != nil {
				t.Fatal(err)
			}
		}
		for i := range uint64(4) {
			as.WriteUint(DefaultLayout().DataBase+i*PageSize, 8, i)
		}
		if got := testing.AllocsPerRun(50, func() { as.Fork() }); got != forkAllocs {
			t.Errorf("%d allocations and %d versions: %.1f allocations per Fork, want %d",
				len(as.allocs), as.Version(), got, forkAllocs)
		}
	}
}
