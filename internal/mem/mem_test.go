package mem

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestArenaAllocAlignment(t *testing.T) {
	a := NewArena(HeapBase, 1<<16)
	for _, align := range []int{1, 2, 4, 8, 16, 64, 4096} {
		addr := a.Alloc(10, align)
		if uint64(addr)%uint64(align) != 0 {
			t.Errorf("Alloc align %d returned %#x, not aligned", align, uint64(addr))
		}
	}
}

func TestArenaAllocDisjoint(t *testing.T) {
	a := NewArena(HeapBase, 1<<16)
	p := a.Alloc(100, 8)
	q := a.Alloc(100, 8)
	if q < p+100 {
		t.Fatalf("allocations overlap: p=%#x q=%#x", uint64(p), uint64(q))
	}
	copy(a.Bytes(p, 100), make([]byte, 100))
	b := a.Bytes(p, 100)
	b[0] = 0xAA
	if a.Bytes(q, 100)[0] == 0xAA {
		t.Fatal("write to p visible at q")
	}
}

func TestArenaBytesRoundTrip(t *testing.T) {
	a := NewArena(HeapBase, 4096)
	addr := a.Alloc(16, 8)
	copy(a.Bytes(addr, 16), []byte("hello simulated!"))
	got := string(a.Bytes(addr, 16))
	if got != "hello simulated!" {
		t.Fatalf("round trip = %q", got)
	}
}

func TestArenaExhaustionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on exhaustion")
		}
	}()
	a := NewArena(HeapBase, 64)
	a.Alloc(65, 1)
}

func TestArenaOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-arena access")
		}
	}()
	a := NewArena(HeapBase, 64)
	a.Bytes(HeapBase+60, 8)
}

func TestArenaReset(t *testing.T) {
	a := NewArena(WorkBase, 1024)
	first := a.Alloc(512, 8)
	a.Reset()
	second := a.Alloc(512, 8)
	if first != second {
		t.Fatalf("after Reset, Alloc = %#x, want %#x", uint64(second), uint64(first))
	}
}

func TestArenaContains(t *testing.T) {
	a := NewArena(HeapBase, 128)
	if !a.Contains(HeapBase) || !a.Contains(HeapBase+127) {
		t.Error("Contains misses interior addresses")
	}
	if a.Contains(HeapBase+128) || a.Contains(HeapBase-1) {
		t.Error("Contains accepts exterior addresses")
	}
}

// TestArenaRecycledBackingIsZero: a released backing comes back from
// NewArena all zero, including bytes handed out before a Reset (the
// high-water mark survives Reset, so Release clears past the final off).
func TestArenaRecycledBackingIsZero(t *testing.T) {
	const size = 3<<10 + 64 // a size no other test uses
	a := NewArena(WorkBase, size)
	fill := func(addr Addr, n int, v byte) {
		for i, b := 0, a.Bytes(addr, n); i < n; i++ {
			b[i] = v
		}
	}
	fill(a.Alloc(1000, 8), 1000, 0xFF)
	a.Reset()
	fill(a.Alloc(200, 8), 200, 0xEE)
	if a.HighWater() != 1000 || a.Used() != 200 {
		t.Fatalf("HighWater %d Used %d, want 1000 and 200", a.HighWater(), a.Used())
	}
	raw, _ := a.Raw()
	first := &raw[0]
	a.Release()

	b := NewArena(WorkBase+(1<<20), size)
	defer b.Release()
	got, base := b.Raw()
	if &got[0] != first {
		t.Fatal("NewArena did not reuse the released backing")
	}
	if base != WorkBase+(1<<20) || b.Size() != size || b.Used() != 0 || b.HighWater() != 0 {
		t.Fatalf("recycled arena: base %#x size %d used %d hi %d", uint64(base), b.Size(), b.Used(), b.HighWater())
	}
	if !bytes.Equal(got, make([]byte, size)) {
		t.Fatalf("recycled backing not zero: first nonzero at %d", bytes.IndexFunc(got, func(r rune) bool { return r != 0 }))
	}
}

// TestArenaReleasedPanics: a released arena refuses every access, and a
// second Release neither panics nor lists the backing twice.
func TestArenaReleasedPanics(t *testing.T) {
	const size = 5<<10 + 64
	a := NewArena(WorkBase, size)
	at := a.Alloc(64, 8)
	a.Release()
	n := len(backings.free[size])
	a.Release()
	if got := len(backings.free[size]); got != n {
		t.Fatalf("second Release changed the free list: %d -> %d backings", n, got)
	}
	if raw, _ := a.Raw(); raw != nil {
		t.Fatal("Raw returned a backing after Release")
	}
	for name, f := range map[string]func(){
		"Alloc":        func() { a.Alloc(8, 8) },
		"Alloc(0)":     func() { a.Alloc(0, 1) },
		"Bytes":        func() { a.Bytes(at, 8) },
		"Bytes(empty)": func() { a.Bytes(WorkBase, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after Release did not panic", name)
				}
			}()
			f()
		}()
	}
	NewArena(WorkBase, size).Release() // drain the list for later tests
}

// TestArenaReleaseRaceHammer churns NewArena/Release on two sizes from
// many goroutines (run it under -race). Each arena must start zero
// however its backing was last used, and the free list must end with no
// more backings per size than were live at once (or than it held before,
// when an earlier -count iteration left more).
func TestArenaReleaseRaceHammer(t *testing.T) {
	sizes := []int{7<<10 + 64, 9<<10 + 64}
	var live, peak [2]atomic.Int64
	for k, size := range sizes {
		peak[k].Store(int64(len(backings.free[size])))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				k := (g + i) % 2
				if n := live[k].Add(1); n > peak[k].Load() {
					for p := peak[k].Load(); n > p && !peak[k].CompareAndSwap(p, n); p = peak[k].Load() {
					}
				}
				a := NewArena(WorkBase, sizes[k])
				n := 1 + (g*131+i*17)%(sizes[k]-64)
				b := a.Bytes(a.Alloc(n, 1), n)
				for j := range b {
					if b[j] != 0 {
						t.Errorf("size %d: fresh arena byte %d = %#x", sizes[k], j, b[j])
						break
					}
					b[j] = byte(g + 1)
				}
				a.Release()
				live[k].Add(-1)
			}
		}(g)
	}
	wg.Wait()
	for k, size := range sizes {
		if got, max := int64(len(backings.free[size])), peak[k].Load(); got > max {
			t.Errorf("size %d: %d free backings, but at most %d were needed at once", size, got, max)
		}
	}
}

func TestLine(t *testing.T) {
	for _, tc := range []struct{ in, want Addr }{
		{0, 0}, {1, 0}, {63, 0}, {64, 64}, {65, 64}, {1000, 960},
	} {
		if got := tc.in.Line(); got != tc.want {
			t.Errorf("Line(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestLineProperty(t *testing.T) {
	f := func(a uint64) bool {
		l := Addr(a).Line()
		return uint64(l)%LineSize == 0 && l <= Addr(a) && Addr(a)-l < LineSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCodeMapRegister(t *testing.T) {
	m := NewCodeMap()
	s1 := m.Register("scan", 2000)
	s2 := m.Register("join", 8192)
	if s1.Size%LineSize != 0 {
		t.Errorf("segment size %d not line-rounded", s1.Size)
	}
	if s2.Base < s1.Base+Addr(s1.Size) {
		t.Errorf("segments overlap: scan=%+v join=%+v", s1, s2)
	}
	if again := m.Register("scan", 999); again != s1 {
		t.Errorf("re-register returned %+v, want %+v", again, s1)
	}
	if got, ok := m.Lookup("join"); !ok || got != s2 {
		t.Errorf("Lookup(join) = %+v, %v", got, ok)
	}
	if _, ok := m.Lookup("nope"); ok {
		t.Error("Lookup of unregistered name succeeded")
	}
}

func TestCodeSegInstructions(t *testing.T) {
	s := CodeSeg{Base: CodeBase, Size: 256}
	if s.Instructions() != 64 {
		t.Fatalf("Instructions = %d, want 64", s.Instructions())
	}
}
