package scheduler

import (
	"container/heap"
	"math/rand"
	"testing"

	"repro/internal/trace"
)

// refTaskHeap is the reference pending queue: the scheduler's former
// container/heap adapter, ordered by taskHeap's own Less.
type refTaskHeap struct{ taskHeap }

func (h *refTaskHeap) Swap(i, j int) { h.tasks[i], h.tasks[j] = h.tasks[j], h.tasks[i] }
func (h *refTaskHeap) Push(x any)    { h.tasks = append(h.tasks, x.(*Task)) }
func (h *refTaskHeap) Pop() any {
	n := len(h.tasks) - 1
	t := h.tasks[n]
	h.tasks = h.tasks[:n]
	return t
}

// TestPendingQueueMatchesContainerHeap drives random push/pop
// interleavings, with few distinct priorities so most comparisons tie,
// through the typed queue and the container/heap reference; both must
// pop the same tasks in the same order, under the default order and
// under a QueueLess hook.
func TestPendingQueueMatchesContainerHeap(t *testing.T) {
	for _, hook := range []struct {
		name string
		less func(a, b *Task) bool
	}{
		{"default", nil},
		// Smallest request first, coarse enough to tie often.
		{"queue-less", func(a, b *Task) bool { return a.Request.CPU < b.Request.CPU }},
	} {
		less := hook.less
		t.Run(hook.name, func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ {
				r := rand.New(rand.NewSource(seed))
				got := taskHeap{less: less}
				ref := refTaskHeap{taskHeap{less: less}}
				var seq uint64
				for op := 0; op < 6000; op++ {
					if r.Intn(5) < 3 || got.Len() == 0 {
						tk := benchTask(trace.Resources{CPU: float64(r.Intn(4)) / 4}, 100*r.Intn(4), trace.TierMid)
						tk.enqueueSeq = seq
						seq++
						got.push(tk)
						heap.Push(&ref, tk)
					} else if a, b := got.pop(), heap.Pop(&ref).(*Task); a != b {
						t.Fatalf("seed %d op %d: popped seq %d, reference seq %d", seed, op, a.enqueueSeq, b.enqueueSeq)
					}
					if got.Len() != ref.Len() {
						t.Fatalf("seed %d op %d: len %d, reference %d", seed, op, got.Len(), ref.Len())
					}
				}
				for got.Len() > 0 {
					if a, b := got.pop(), heap.Pop(&ref).(*Task); a != b {
						t.Fatalf("seed %d drain: popped seq %d, reference seq %d", seed, a.enqueueSeq, b.enqueueSeq)
					}
				}
			}
		})
	}
}

// BenchmarkPendingQueue measures one pop and one push of the pending
// queue at suite-stream's depth (sched.queue_depth_p99 of about 3,900),
// with a default-order mix of five priorities: a retry re-enqueues the
// task it popped, behind its priority band.
func BenchmarkPendingQueue(b *testing.B) {
	const depth = 3900
	prios := []int{0, 25, 100, 200, 360}
	r := rand.New(rand.NewSource(1))
	var h taskHeap
	var seq uint64
	for i := 0; i < depth; i++ {
		tk := benchTask(trace.Resources{CPU: 0.1, Mem: 0.1}, prios[r.Intn(len(prios))], trace.TierMid)
		tk.enqueueSeq = seq
		seq++
		h.push(tk)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk := h.pop()
		tk.enqueueSeq = seq
		seq++
		h.push(tk)
	}
}
