package scheduler

import "repro/internal/sim"

// taskHeap orders pending tasks by (priority desc, enqueue sequence asc):
// strongest tier first, FIFO within a priority. A policy implementing
// QueueOrderer substitutes its own primary ordering via less; ties under
// either ordering break by enqueue sequence rather than a timestamp, so
// bursts of tasks arriving in the same simulation instant still pop
// deterministically.
//
// It is a 4-ary min-heap over tasks (entry i's children are
// 4i+1..4i+4) under Less. enqueueSeq is unique and a queued task's
// priority never changes, so the order is total and the pop sequence is
// the same for any correct heap.
type taskHeap struct {
	tasks []*Task
	// less is the optional QueueOrderer hook; nil selects the default
	// priority-descending order.
	less func(a, b *Task) bool
}

func (h *taskHeap) Len() int { return len(h.tasks) }

// Less reports whether tasks[i] pops before tasks[j].
func (h *taskHeap) Less(i, j int) bool { return h.before(h.tasks[i], h.tasks[j]) }

func (h *taskHeap) before(a, b *Task) bool {
	if h.less != nil {
		if h.less(a, b) {
			return true
		}
		if h.less(b, a) {
			return false
		}
	} else if a.Job.Priority != b.Job.Priority {
		return a.Job.Priority > b.Job.Priority
	}
	return a.enqueueSeq < b.enqueueSeq
}

// push adds t and sifts it toward the root.
func (h *taskHeap) push(t *Task) {
	h.tasks = append(h.tasks, t)
	i := len(h.tasks) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !h.before(t, h.tasks[p]) {
			break
		}
		h.tasks[i] = h.tasks[p]
		i = p
	}
	h.tasks[i] = t
}

// pop removes and returns the first task; the heap must not be empty.
func (h *taskHeap) pop() *Task {
	top := h.tasks[0]
	n := len(h.tasks) - 1
	t := h.tasks[n]
	h.tasks[n] = nil
	h.tasks = h.tasks[:n]
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		best := c
		for j, end := c+1, min(c+4, n); j < end; j++ {
			if h.before(h.tasks[j], h.tasks[best]) {
				best = j
			}
		}
		if !h.before(h.tasks[best], t) {
			break
		}
		h.tasks[i] = h.tasks[best]
		i = best
	}
	h.tasks[i] = t
	return top
}

// enqueue adds a task to the pending queue and pokes the scheduling server.
func (s *Scheduler) enqueue(t *Task) {
	t.State = TaskPending
	s.accountBEB(t)
	t.enqueueSeq = s.seq
	s.seq++
	s.pending.push(t)
	s.met.pendingQueue.Set(float64(s.pending.Len()))
	s.kick()
}

// kick starts the scheduling server if it is idle and work is pending.
// The server processes one placement attempt per service time draw; the
// resulting queueing behaviour produces the scheduling-delay distributions
// of Figure 10.
func (s *Scheduler) kick() {
	if s.busy || s.pending.Len() == 0 {
		return
	}
	s.busy = true
	service := s.cfg.ServiceTime.Sample(s.src)
	if service < 0 {
		service = 0
	}
	s.k.After(sim.FromSeconds(service), func(now sim.Time) {
		s.busy = false
		s.serveOne(now)
		s.kick()
	})
}

// serveOne pops the strongest pending task and attempts placement.
func (s *Scheduler) serveOne(now sim.Time) {
	for s.pending.Len() > 0 {
		t := s.pending.pop()
		if t.State != TaskPending || t.Job.State == JobDone {
			continue // withdrawn (killed) while queued
		}
		// The gauge updates before the attempt: any path out of
		// attemptPlacement that re-enqueues refreshes it again.
		s.met.pendingQueue.Set(float64(s.pending.Len()))
		s.attemptPlacement(t, now)
		return
	}
	s.met.pendingQueue.Set(0)
}
