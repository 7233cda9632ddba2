package mem

import "testing"

func TestReadWriteRoundTrip(t *testing.T) {
	m := New()
	m.Write(0, 1)
	m.Write(4095, 2)
	m.Write(4096, 3) // next page
	m.Write(1<<31, 4)
	if m.Peek(0) != 1 || m.Peek(4095) != 2 || m.Peek(4096) != 3 || m.Peek(1<<31) != 4 {
		t.Fatal("round trip failed")
	}
	if m.Peek(99) != 0 {
		t.Fatal("unwritten word not zero")
	}
}

func TestLoadImage(t *testing.T) {
	m := New()
	m.LoadImage(100, []uint32{7, 8, 9})
	if m.Peek(100) != 7 || m.Peek(102) != 9 {
		t.Fatal("image not loaded")
	}
}

func TestBusCosts(t *testing.T) {
	b := DefaultBus()
	c := b.TransferCost(4)
	if c != b.Latency+4*b.PerWord {
		t.Fatalf("cost %d", c)
	}
	if b.Transfers != 1 || b.WordsCarried != 4 || b.BusyCycles != uint64(c) {
		t.Fatalf("bus accounting wrong: %+v", b)
	}
}
