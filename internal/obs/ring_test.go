package obs

import (
	"reflect"
	"testing"
)

func TestRingKeepsNewestOldestFirst(t *testing.T) {
	r := NewRing[int](3)
	if got := r.Items(); got == nil || len(got) != 0 {
		t.Fatalf("empty ring items = %#v, want empty non-nil", got)
	}
	for i := 1; i <= 2; i++ {
		r.Push(i)
	}
	if got := r.Items(); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("partial ring = %v, want [1 2]", got)
	}
	for i := 3; i <= 7; i++ {
		r.Push(i)
	}
	if got := r.Items(); !reflect.DeepEqual(got, []int{5, 6, 7}) || r.Len() != 3 {
		t.Fatalf("wrapped ring = %v (len %d), want [5 6 7]", got, r.Len())
	}
}
