package spin

import (
	"sync"
	"testing"
)

func TestLockUnlock(t *testing.T) {
	var l TTAS
	if l.Locked() {
		t.Fatal("zero value must be unlocked")
	}
	l.Lock()
	if !l.Locked() {
		t.Fatal("Lock must set state")
	}
	l.Unlock()
	if l.Locked() {
		t.Fatal("Unlock must clear state")
	}
}

func TestUnlockOfUnlockedPanics(t *testing.T) {
	var l TTAS
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l.Unlock()
}

func TestMutualExclusion(t *testing.T) {
	var l TTAS
	const workers = 8
	const iters = 20000
	counter := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				l.Lock()
				counter++
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != workers*iters {
		t.Fatalf("lost updates: %d != %d", counter, workers*iters)
	}
}

// TestExpDefaults: the zero value needs no setup; its first wait spins
// defaultStart iterations and doubles the next one.
func TestExpDefaults(t *testing.T) {
	var b exp
	if b.cur != 0 {
		t.Fatal("fresh backoff must start at 0")
	}
	b.wait()
	if b.cur != 2*defaultStart {
		t.Fatalf("after the first wait: %d, want %d", b.cur, 2*defaultStart)
	}
}

// TestExpDoubling: each wait doubles the next, and the wait saturates
// at defaultMax.
func TestExpDoubling(t *testing.T) {
	var b exp
	want := uint32(defaultStart)
	for want < defaultMax {
		b.wait()
		want <<= 1
		if b.cur != want {
			t.Fatalf("wait did not double: %d, want %d", b.cur, want)
		}
	}
	b.wait()
	if b.cur != defaultMax {
		t.Fatalf("must saturate at %d, got %d", defaultMax, b.cur)
	}
	b.wait()
	if b.cur != defaultMax {
		t.Fatal("saturation must hold")
	}
}
