package sim

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	k := NewKernel()
	if k.Now() != 0 {
		t.Fatalf("clock %v", k.Now())
	}
}

func TestEventOrdering(t *testing.T) {
	k := NewKernel()
	var order []int
	k.At(30, func(Time) { order = append(order, 3) })
	k.At(10, func(Time) { order = append(order, 1) })
	k.At(20, func(Time) { order = append(order, 2) })
	k.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order %v", order)
	}
	if k.Now() != 30 {
		t.Fatalf("final clock %v", k.Now())
	}
	if k.Fired() != 3 {
		t.Fatalf("fired %d", k.Fired())
	}
}

func TestFIFOAmongEqualTimes(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(5, func(Time) { order = append(order, i) })
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events not FIFO: %v", order)
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	k := NewKernel()
	k.At(100, func(Time) {})
	k.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for past event")
		}
	}()
	k.At(50, func(Time) {})
}

func TestAfterClampsNegativeDelay(t *testing.T) {
	k := NewKernel()
	fired := false
	k.After(-5, func(now Time) {
		if now != 0 {
			t.Fatalf("fired at %v", now)
		}
		fired = true
	})
	k.Run()
	if !fired {
		t.Fatal("never fired")
	}
}

func TestCancel(t *testing.T) {
	k := NewKernel()
	fired := false
	e := k.At(10, func(Time) { fired = true })
	if !k.Scheduled(e) {
		t.Fatal("event not scheduled")
	}
	k.Cancel(e)
	k.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	if k.Scheduled(e) {
		t.Fatal("event still scheduled after cancel")
	}
	// Double-cancel and zero-ref cancel are no-ops.
	k.Cancel(e)
	k.Cancel(EventRef{})
}

func TestCancelDuringRun(t *testing.T) {
	k := NewKernel()
	fired := false
	var e2 EventRef
	k.At(1, func(Time) { k.Cancel(e2) })
	e2 = k.At(2, func(Time) { fired = true })
	k.Run()
	if fired {
		t.Fatal("event canceled mid-run still fired")
	}
}

func TestEventPoolReuse(t *testing.T) {
	k := NewKernel()
	// Sequential schedule/fire cycles must recycle the same slot instead
	// of growing the slab.
	for i := 0; i < 1000; i++ {
		k.After(1, func(Time) {})
		k.Step()
	}
	if k.PoolSize() > 2 {
		t.Fatalf("pool grew to %d slots for sequential events", k.PoolSize())
	}
}

func TestStaleRefCannotCancelRecycledSlot(t *testing.T) {
	k := NewKernel()
	stale := k.At(1, func(Time) {})
	k.Step() // fires and recycles the slot
	if k.Scheduled(stale) {
		t.Fatal("fired event still scheduled")
	}
	// The next event reuses the slot; the stale ref must not touch it.
	fired := false
	fresh := k.At(2, func(Time) { fired = true })
	k.Cancel(stale)
	if !k.Scheduled(fresh) {
		t.Fatal("stale cancel removed the slot's new occupant")
	}
	k.Run()
	if !fired {
		t.Fatal("recycled event did not fire")
	}
}

func TestSelfCancelInCallbackIsNoop(t *testing.T) {
	k := NewKernel()
	var self EventRef
	self = k.At(5, func(Time) { k.Cancel(self) })
	followUp := false
	k.At(6, func(Time) { followUp = true })
	k.Run()
	if !followUp {
		t.Fatal("self-cancel disturbed the queue")
	}
}

func TestZeroRef(t *testing.T) {
	var r EventRef
	if !r.IsZero() {
		t.Fatal("zero value not IsZero")
	}
	k := NewKernel()
	if k.Scheduled(r) {
		t.Fatal("zero ref scheduled")
	}
	if e := k.At(1, func(Time) {}); e.IsZero() {
		t.Fatal("live ref reports IsZero")
	}
}

func TestRunUntil(t *testing.T) {
	k := NewKernel()
	var fired []Time
	for _, d := range []Time{5, 15, 25} {
		d := d
		k.At(d, func(now Time) { fired = append(fired, now) })
	}
	k.RunUntil(20)
	if len(fired) != 2 {
		t.Fatalf("fired %v", fired)
	}
	if k.Now() != 20 {
		t.Fatalf("clock %v, want 20", k.Now())
	}
	if k.Pending() != 1 {
		t.Fatalf("pending %d", k.Pending())
	}
	k.RunUntil(100)
	if len(fired) != 3 || k.Now() != 100 {
		t.Fatalf("fired %v, now %v", fired, k.Now())
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	k := NewKernel()
	var hits int
	var chain func(now Time)
	chain = func(now Time) {
		hits++
		if hits < 5 {
			k.After(10, chain)
		}
	}
	k.At(0, chain)
	k.Run()
	if hits != 5 {
		t.Fatalf("chain hits %d", hits)
	}
	if k.Now() != 40 {
		t.Fatalf("clock %v", k.Now())
	}
}

func TestEvery(t *testing.T) {
	k := NewKernel()
	var ticks []Time
	k.Every(10, 10, 55, func(now Time) { ticks = append(ticks, now) })
	k.Run()
	want := []Time{10, 20, 30, 40, 50}
	if len(ticks) != len(want) {
		t.Fatalf("ticks %v", ticks)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks %v", ticks)
		}
	}
}

func TestEveryStop(t *testing.T) {
	k := NewKernel()
	count := 0
	var stop func()
	stop = k.Every(0, 10, 0, func(now Time) {
		count++
		if count == 3 {
			stop()
		}
	})
	k.RunUntil(1000)
	if count != 3 {
		t.Fatalf("count %d", count)
	}
}

func TestEveryPanicsOnBadPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewKernel().Every(0, 0, 0, func(Time) {})
}

func TestTimeConversions(t *testing.T) {
	if Duration(time.Second) != Second {
		t.Fatal("Duration(1s)")
	}
	if (2 * Hour).Hours() != 2 {
		t.Fatal("Hours")
	}
	if (1500 * Millisecond).Seconds() != 1.5 {
		t.Fatal("Seconds")
	}
	if got := (Day + 2*Hour + 3*Minute + 4*Second + 5*Millisecond).String(); got != "1.02:03:04.005" {
		t.Fatalf("String() = %q", got)
	}
	if got := Time(-Second).String(); got != "-0.00:00:01.000" {
		t.Fatalf("negative String() = %q", got)
	}
}

// Property: any batch of events fires in non-decreasing time order.
func TestOrderingProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		k := NewKernel()
		var fired []Time
		for _, d := range delays {
			k.At(Time(d), func(now Time) { fired = append(fired, now) })
		}
		k.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkKernelThroughput measures one Step, whose callback schedules
// a replacement event 1–1024 µs ahead, at a fixed number of pending
// events. 64 is a shallow queue; 3000 matches suite-stream's kernel
// depth (sim.pending_p99 of 3,007).
func BenchmarkKernelThroughput(b *testing.B) {
	for _, depth := range []int{64, 3000} {
		b.Run(fmt.Sprintf("pending=%d", depth), func(b *testing.B) {
			k := NewKernel()
			x := uint64(1)
			var reschedule func(now Time)
			reschedule = func(now Time) {
				x = x*6364136223846793005 + 1442695040888963407
				k.After(Time(1+x>>54), reschedule)
			}
			for i := 0; i < depth; i++ {
				k.After(Time(i), reschedule)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.Step()
			}
		})
	}
}
