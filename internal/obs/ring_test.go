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

func TestFlightRingRetainsLastSpans(t *testing.T) {
	f := NewFlight()
	for i := 0; i < DefaultFlightSpans+10; i++ {
		f.Record(SpanRecord{Name: "s", WallNS: int64(i)})
	}
	v := f.View()
	if v.SpansTotal != DefaultFlightSpans+10 || len(v.RecentSpans) != DefaultFlightSpans {
		t.Fatalf("total %d retained %d", v.SpansTotal, len(v.RecentSpans))
	}
	if first := v.RecentSpans[0].WallNS; first != 10 {
		t.Fatalf("oldest retained span = %d, want 10", first)
	}
}
