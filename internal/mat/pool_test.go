package mat

import "testing"

// A lease has the requested length and its class's capacity, and a buffer of
// any capacity goes back under the class it can serve, so it is never handed
// out short.
func TestPoolClasses(t *testing.T) {
	if GetFloats(0) != nil {
		t.Fatal("a zero-length lease must be nil")
	}
	for _, n := range []int{1, 2, 3, 1000, 1024, 1025} {
		s := GetFloats(n)
		if len(s) != n || cap(s) != 1<<poolClass(n) {
			t.Fatalf("GetFloats(%d): len %d cap %d, want len %d cap %d", n, len(s), cap(s), n, 1<<poolClass(n))
		}
		PutFloats(s)
	}
	PutFloats(nil)
	PutFloats(make([]float64, 0, 1500)) // off-class: filed under 1024
	for i := 0; i < 4; i++ {
		if s := GetFloats(1500); cap(s) < 1500 {
			t.Fatalf("GetFloats(1500) handed out capacity %d", cap(s))
		}
	}
}

// The pool entry is a pointer, which an interface holds without boxing: a
// warm lease-and-return cycle allocates nothing. (Under the race detector
// sync.Pool drops a random share of Puts, so some Gets allocate; the mean
// stays below one object per cycle, which AllocsPerRun truncates to zero.)
func TestPoolCycleAllocatesNothing(t *testing.T) {
	PutFloats(GetFloats(3000))
	if avg := testing.AllocsPerRun(200, func() { PutFloats(GetFloats(3000)) }); avg != 0 {
		t.Fatalf("a warm GetFloats/PutFloats cycle allocates %v objects", avg)
	}
}
