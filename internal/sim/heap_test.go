package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refEvent and refQueue are the reference event queue: the kernel's
// former container/heap ordering by (due, seq), kept here so the typed
// heap can be checked against it.
type refEvent struct {
	due   Time
	seq   uint64
	label int
	pos   int // index in refQueue, -1 once popped or removed
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].due != q[j].due {
		return q[i].due < q[j].due
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].pos, q[j].pos = i, j
}
func (q *refQueue) Push(x any) {
	e := x.(*refEvent)
	e.pos = len(*q)
	*q = append(*q, e)
}
func (q *refQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	e.pos = -1
	return e
}

// TestKernelMatchesContainerHeap drives random interleavings of At,
// After, Cancel and Step, with many equal due times and callbacks that
// schedule at the current instant, through the kernel and the
// container/heap reference; both must fire the same labels in the same
// order at the same times.
func TestKernelMatchesContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		k := NewKernel()
		var ref refQueue
		var seq uint64
		var refs []EventRef
		var evs []*refEvent
		var fired []int
		// record enters an event into the reference queue and returns
		// its label; the kernel event with the same label must match it.
		record := func(due Time) int {
			e := &refEvent{due: due, seq: seq, label: len(evs)}
			seq++
			heap.Push(&ref, e)
			evs = append(evs, e)
			return e.label
		}
		var callback func(label int) func(Time)
		schedule := func(due Time) {
			refs = append(refs, k.At(due, callback(record(due))))
		}
		// Every fifth event schedules a child at its own instant when it
		// fires, so same-time FIFO among callbacks is exercised too.
		callback = func(label int) func(Time) {
			return func(now Time) {
				fired = append(fired, label)
				if label%5 == 0 {
					schedule(now)
				}
			}
		}
		// step fires the next event in both queues and compares them.
		step := func() {
			want := heap.Pop(&ref).(*refEvent)
			n := len(fired)
			if !k.Step() {
				t.Fatalf("seed %d: kernel empty, reference has %d", seed, ref.Len()+1)
			}
			if len(fired) == n || fired[n] != want.label || k.Now() != want.due {
				t.Fatalf("seed %d: fired %v at %v, reference %d at %v", seed, fired[n:], k.Now(), want.label, want.due)
			}
		}
		for op := 0; op < 4000; op++ {
			switch c := r.Intn(10); {
			case c < 3: // equal-time heavy: due within 3 µs of now
				schedule(k.Now() + Time(r.Intn(3)))
			case c < 4: // After must agree with At at now+delay
				d := Time(r.Intn(50))
				refs = append(refs, k.After(d, callback(record(k.Now()+d))))
			case c < 6:
				if len(evs) == 0 {
					continue
				}
				i := r.Intn(len(evs))
				k.Cancel(refs[i])
				if evs[i].pos >= 0 {
					heap.Remove(&ref, evs[i].pos)
				}
			default:
				if ref.Len() > 0 {
					step()
				}
			}
			if k.Pending() != ref.Len() {
				t.Fatalf("seed %d op %d: pending %d, reference %d", seed, op, k.Pending(), ref.Len())
			}
		}
		for ref.Len() > 0 {
			step()
		}
		if k.Step() {
			t.Fatalf("seed %d: kernel fired past the reference", seed)
		}
	}
}

// TestAtStepZeroAllocsAtDepth guards the steady-state cycle at a deep
// queue: scheduling one event and firing one with 4,096 pending must not
// allocate (a boxed slot ID would).
func TestAtStepZeroAllocsAtDepth(t *testing.T) {
	k := NewKernel()
	noop := func(Time) {}
	x := uint64(1)
	cycle := func() {
		x = x*6364136223846793005 + 1442695040888963407
		k.After(Time(1+x>>52), noop)
		k.Step()
	}
	for i := 0; i < 4096; i++ {
		k.At(Time(i), noop)
	}
	for i := 0; i < 1000; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(1000, cycle); avg != 0 {
		t.Fatalf("At+Step at %d pending: %.2f allocs/op, want 0", k.Pending(), avg)
	}
	if k.Pending() != 4096 {
		t.Fatalf("pending %d, want 4096", k.Pending())
	}
}
