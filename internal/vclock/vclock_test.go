package vclock

import (
	"sync"
	"testing"
	"time"

	"realtracer/internal/simclock"
)

// fireFunc adapts a function to simclock.EventHandler for the tests.
type fireFunc func(now time.Duration)

func (f fireFunc) Fire(now time.Duration) { f(now) }

func TestSimAdapter(t *testing.T) {
	sc := simclock.New()
	var c Clock = Sim{C: sc}
	var firedAt time.Duration
	h := c.AfterHandler(time.Second, fireFunc(func(now time.Duration) { firedAt = now }))
	if c.Now() != 0 {
		t.Fatal("origin not zero")
	}
	if !h.Armed() {
		t.Fatal("pending handle reports unarmed")
	}
	sc.Run()
	if firedAt != time.Second {
		t.Fatalf("sim handler fired at %v, want 1s", firedAt)
	}
	if h.Armed() {
		t.Fatal("fired handle still armed")
	}
	h.Cancel() // post-fire cancel is a no-op
}

func TestSimTimerCancel(t *testing.T) {
	sc := simclock.New()
	var c Clock = Sim{C: sc}
	fired := false
	h := c.AfterHandler(time.Second, fireFunc(func(time.Duration) { fired = true }))
	h.Cancel()
	sc.Run()
	if fired {
		t.Fatal("cancelled handler fired")
	}
	if h.Armed() {
		t.Fatal("cancelled handle still armed")
	}
	Handle{}.Cancel() // the zero Handle is inert
}

func TestLoopSerializesPosts(t *testing.T) {
	loop := NewLoop()
	var mu sync.Mutex
	var got []int
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			loop.Post(func() {
				mu.Lock()
				got = append(got, i)
				mu.Unlock()
			})
		}()
	}
	done := make(chan struct{})
	go func() {
		loop.Run()
		close(done)
	}()
	wg.Wait()
	loop.Post(func() { loop.Close() })
	<-done
	if len(got) != 100 {
		t.Fatalf("executed %d of 100 posts", len(got))
	}
}

func TestLoopCloseDropsLatePosts(t *testing.T) {
	loop := NewLoop()
	loop.Close()
	ran := false
	loop.Post(func() { ran = true })
	loop.Run() // returns immediately: closed with empty queue
	if ran {
		t.Fatal("post after close executed")
	}
}

func TestRealTimerFires(t *testing.T) {
	loop := NewLoop()
	clock := NewReal(loop)
	done := make(chan struct{})
	h := clock.AfterHandler(5*time.Millisecond, fireFunc(func(now time.Duration) {
		if now < 4*time.Millisecond {
			t.Error("fired too early")
		}
		loop.Close()
		close(done)
	}))
	go loop.Run()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("real handler never fired")
	}
	if h.Armed() {
		t.Fatal("fired real handle still armed")
	}
}

func TestRealTimerCancel(t *testing.T) {
	loop := NewLoop()
	clock := NewReal(loop)
	fired := make(chan struct{}, 1)
	h := clock.AfterHandler(10*time.Millisecond, fireFunc(func(time.Duration) { fired <- struct{}{} }))
	h.Cancel()
	h.Cancel() // idempotent
	go loop.Run()
	defer loop.Close()
	select {
	case <-fired:
		t.Fatal("cancelled real handler fired")
	case <-time.After(50 * time.Millisecond):
	}
}
