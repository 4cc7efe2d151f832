package obs

// Ring is a fixed-capacity buffer that keeps the newest values: its
// length grows to the capacity, then each Push overwrites the oldest.
// It is the one bounded history behind the flight recorder's spans, the
// time-series points and the alert transition log. Not safe for
// concurrent use; callers hold their own lock.
type Ring[T any] struct {
	buf  []T
	next int
}

// NewRing returns an empty ring holding at most capacity values.
func NewRing[T any](capacity int) *Ring[T] {
	return &Ring[T]{buf: make([]T, 0, capacity)}
}

// Push appends v, evicting the oldest value once the ring is full.
func (r *Ring[T]) Push(v T) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
	} else {
		r.buf[r.next] = v
	}
	r.next = (r.next + 1) % cap(r.buf)
}

// Len returns how many values the ring holds.
func (r *Ring[T]) Len() int { return len(r.buf) }

// Items returns a copy of the ring's values, oldest first (an empty,
// non-nil slice when the ring is empty).
func (r *Ring[T]) Items() []T {
	n := len(r.buf)
	out := make([]T, 0, n)
	start := 0
	if n == cap(r.buf) {
		start = r.next
	}
	for i := 0; i < n; i++ {
		out = append(out, r.buf[(start+i)%n])
	}
	return out
}
