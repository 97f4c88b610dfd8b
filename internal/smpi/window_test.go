package smpi

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/mat"
)

func TestWindowPutGet(t *testing.T) {
	run(t, 4, true, func(c *Comm) error {
		local := mat.New(4, 4)
		local.Set(0, 0, float64(c.Rank()))
		win := NewWindow(c, 1, local)
		defer win.Free()
		win.Fence()
		// Every rank reads its right neighbour's corner.
		buf := mat.New(1, 1)
		win.Get((c.Rank()+1)%4, 0, 0, buf)
		if buf.At(0, 0) != float64((c.Rank()+1)%4) {
			return fmt.Errorf("rank %d got %v", c.Rank(), buf.At(0, 0))
		}
		win.Fence()
		// Every rank puts its id into its left neighbour's (1,1).
		src := mat.New(1, 1)
		src.Set(0, 0, float64(c.Rank()))
		win.Put((c.Rank()+3)%4, 1, 1, src)
		win.Fence()
		if local.At(1, 1) != float64((c.Rank()+1)%4) {
			return fmt.Errorf("rank %d local (1,1)=%v", c.Rank(), local.At(1, 1))
		}
		return nil
	})
}

func TestWindowAccumulate(t *testing.T) {
	run(t, 4, true, func(c *Comm) error {
		local := mat.New(2, 2)
		win := NewWindow(c, 2, local)
		defer win.Free()
		win.Fence()
		// All ranks accumulate 1 into rank 0's (0,0).
		one := mat.New(1, 1)
		one.Set(0, 0, 1)
		win.Accumulate(0, 0, 0, one)
		win.Fence()
		if c.Rank() == 0 && local.At(0, 0) != 4 {
			return fmt.Errorf("accumulated %v want 4", local.At(0, 0))
		}
		return nil
	})
}

func TestWindowVolumeAccounting(t *testing.T) {
	rep := run(t, 2, true, func(c *Comm) error {
		local := mat.New(4, 4)
		win := NewWindow(c, 3, local)
		defer win.Free()
		win.Fence()
		if c.Rank() == 0 {
			// Get 2x2 from rank 1: 4 elements sent BY rank 1.
			win.Get(1, 0, 0, mat.New(2, 2))
			// Put 1x4 to rank 1: 4 elements sent by rank 0.
			win.Put(1, 2, 0, mat.New(1, 4))
		}
		win.Fence()
		return nil
	})
	if rep.Sent[0] != 4*8 || rep.Sent[1] != 4*8 {
		t.Fatalf("sent %v, want 32/32", rep.Sent)
	}
}

func TestWindowLocalAccessNotMetered(t *testing.T) {
	rep := run(t, 2, true, func(c *Comm) error {
		win := NewWindow(c, 4, mat.New(2, 2))
		defer win.Free()
		win.Fence()
		win.Get(c.Rank(), 0, 0, mat.New(2, 2)) // self access
		win.Fence()
		return nil
	})
	if rep.TotalBytes() != 0 {
		t.Fatalf("self RMA metered: %d", rep.TotalBytes())
	}
}

func TestWindowDuplicateIDPanics(t *testing.T) {
	_, err := Exec(context.Background(), Config{P: 1, Payload: true}, func(c *Comm) error {
		NewWindow(c, 5, mat.New(1, 1))
		NewWindow(c, 5, mat.New(1, 1)) // same id, same rank: panic
		return nil
	})
	if err == nil {
		t.Fatal("expected duplicate-window panic")
	}
}
