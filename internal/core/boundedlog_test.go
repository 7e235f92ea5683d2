package core

import (
	"math/rand"
	"slices"
	"testing"
)

// TestBoundedLogOrderMirrorsVals is the white-box half of the log's tests
// (the table of behaviours is TestBoundedLog in internal/protos): after every
// operation order holds exactly the keys of vals, at most limit of them, and
// the log agrees with a model that is allowed to be slow. A Put, an eviction
// or a Delete that touched only one of the two fields — memory that is never
// given back — fails here at the operation that did it.
func TestBoundedLogOrderMirrorsVals(t *testing.T) {
	const limit = 5
	rng := rand.New(rand.NewSource(1))
	l := NewBoundedLog[int, int](limit)
	var keys, vals []int // the model: parallel slices, oldest first

	for i := 0; i < 2000; i++ {
		k := rng.Intn(3 * limit)
		at := slices.Index(keys, k)
		if rng.Intn(3) == 0 {
			l.Delete(k)
			if at >= 0 {
				keys, vals = slices.Delete(keys, at, at+1), slices.Delete(vals, at, at+1)
			}
		} else {
			l.Put(k, i)
			switch {
			case at >= 0:
				vals[at] = i
			case len(keys) == limit:
				keys, vals = append(keys[1:], k), append(vals[1:], i)
			default:
				keys, vals = append(keys, k), append(vals, i)
			}
		}

		if len(l.order) != len(l.vals) || len(l.vals) > limit {
			t.Fatalf("op %d: %d keys in order, %d values, limit %d", i, len(l.order), len(l.vals), limit)
		}
		if !slices.Equal(l.order, keys) {
			t.Fatalf("op %d: order = %v, model %v", i, l.order, keys)
		}
		for j, k := range keys {
			if v, ok := l.vals[k]; !ok || v != vals[j] {
				t.Fatalf("op %d: vals[%d] = %d, %v; model %d", i, k, v, ok, vals[j])
			}
		}
	}
}
