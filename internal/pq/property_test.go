package pq

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestHeapsAgreeOnRandomStreams drives the indexed binary heap and a map
// oracle (id → priority, minimum found by scan) with the same random
// push/decrease-key/pop stream and demands identical (value, priority) pop
// sequences. Priorities are drawn unique so ties cannot legally reorder the
// two; decrease-keys always go strictly below the current key, staying
// unique.
func TestHeapsAgreeOnRandomStreams(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 64
		ih := NewIndexedHeap(n)
		oracle := map[int]float64{}
		oracleMin := func() (int, float64) {
			best, bp := -1, math.Inf(1)
			for id, p := range oracle {
				if p < bp {
					best, bp = id, p
				}
			}
			return best, bp
		}
		used := map[float64]bool{}
		draw := func() float64 {
			for {
				p := rng.Float64() * 100
				if !used[p] {
					used[p] = true
					return p
				}
			}
		}
		var inHeap []int
		for op := 0; op < 400; op++ {
			switch r := rng.Intn(10); {
			case r < 4: // push a value not currently queued
				id := rng.Intn(n)
				if ih.Contains(id) {
					continue
				}
				p := draw()
				ih.Push(id, p)
				oracle[id] = p
				inHeap = append(inHeap, id)
			case r < 7: // decrease a random queued key
				if len(inHeap) == 0 {
					continue
				}
				id := inHeap[rng.Intn(len(inHeap))]
				p := ih.Priority(id) * rng.Float64()
				if used[p] {
					continue
				}
				used[p] = true
				ih.DecreaseKey(id, p)
				oracle[id] = p
			default: // pop
				if ih.Len() != len(oracle) {
					t.Logf("Len diverged: indexed %d, oracle %d", ih.Len(), len(oracle))
					return false
				}
				if ih.Empty() {
					continue
				}
				ov, op := oracleMin()
				if iv, ip := ih.Peek(); iv != ov || ip != op {
					t.Logf("Peek diverged: indexed (%d,%g), oracle (%d,%g)", iv, ip, ov, op)
					return false
				}
				if iv, ip := ih.Pop(); iv != ov || ip != op {
					t.Logf("Pop diverged: indexed (%d,%g), oracle (%d,%g)", iv, ip, ov, op)
					return false
				}
				delete(oracle, ov)
				for k, id := range inHeap {
					if id == ov {
						inHeap = append(inHeap[:k], inHeap[k+1:]...)
						break
					}
				}
			}
		}
		// Drain: the full remaining sequences must match and come out in
		// strictly increasing priority order.
		last := -1.0
		for !ih.Empty() {
			ov, op := oracleMin()
			iv, ip := ih.Pop()
			if iv != ov || ip != op {
				t.Logf("drain diverged: indexed (%d,%g), oracle (%d,%g)", iv, ip, ov, op)
				return false
			}
			if ip <= last {
				t.Logf("drain not sorted: %g after %g", ip, last)
				return false
			}
			last = ip
			delete(oracle, ov)
		}
		return len(oracle) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
