package obs

import (
	"strings"
	"testing"

	"repro/internal/jsondoc"
)

func TestPCProfileNilSafe(t *testing.T) {
	var p *PCProfile
	p.NoteWB(5)
	p.NoteBranch(5, true)
	if p.WBCount(5) != 0 {
		t.Fatal("nil profile counted something")
	}
	if tk, nt := p.BranchCounts(5); tk != 0 || nt != 0 {
		t.Fatal("nil profile counted a branch")
	}
	if got := len(p.Doc().Entries); got != 0 {
		t.Fatalf("nil profile doc has %d entries", got)
	}
}

func TestPCProfileDenseAndOverflow(t *testing.T) {
	p := NewPCProfile(0x100, 4)
	p.NoteWB(0x100) // dense
	p.NoteWB(0x103) // last dense slot
	p.NoteWB(0x104) // just past the window: overflow map
	p.NoteWB(0x0ff) // below base: overflow map (wraps negative)
	p.NoteBranch(0x103, true)
	p.NoteBranch(0x103, false)
	p.NoteBranch(0x103, false)

	if p.WBCount(0x104) != 1 || p.WBCount(0x0ff) != 1 {
		t.Fatal("overflow PCs not counted")
	}
	if tk, nt := p.BranchCounts(0x103); tk != 1 || nt != 2 {
		t.Fatalf("branch counts = %d/%d, want 1/2", tk, nt)
	}
	// Reading a never-written overflow PC must not allocate a row.
	if p.WBCount(0xdead) != 0 {
		t.Fatal("phantom count")
	}
	if _, ok := p.extra[0xdead]; ok {
		t.Fatal("read allocated an overflow entry")
	}

	doc := p.Doc()
	want := []uint32{0x0ff, 0x100, 0x103, 0x104}
	if len(doc.Entries) != len(want) {
		t.Fatalf("doc entries = %d, want %d", len(doc.Entries), len(want))
	}
	for i, e := range doc.Entries {
		if e.PC != want[i] {
			t.Fatalf("entry %d at pc %#x, want %#x (sorted, zero rows omitted)", i, e.PC, want[i])
		}
	}

	buf, err := jsondoc.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParsePCProfile(buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, pc := range want {
		if back.WBCount(pc) != p.WBCount(pc) {
			t.Fatalf("wb count at %#x drifted across round trip", pc)
		}
	}
	if tk, nt := back.BranchCounts(0x103); tk != 1 || nt != 2 {
		t.Fatalf("branch counts lost in round trip: %d/%d", tk, nt)
	}
}

func TestParsePCProfileRejectsWrongSchema(t *testing.T) {
	_, err := ParsePCProfile([]byte(`{"schema":"mipsx-obs/v1","entries":[]}`))
	if err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("want schema error, got %v", err)
	}
}

// TestParsePCProfileRejectsRowsDocNeverWrites: Doc writes each nonzero pc
// once, in increasing order, so a repeated pc (which used to keep only its
// last row), a pc out of order and an all-zero row are errors.
func TestParsePCProfileRejectsRowsDocNeverWrites(t *testing.T) {
	for name, entries := range map[string]string{
		"repeated pc": `{"pc":4,"wb":5},{"pc":4,"wb":7}`,
		"unsorted":    `{"pc":4,"wb":5},{"pc":2,"wb":1}`,
		"all zero":    `{"pc":2,"wb":1},{"pc":4,"wb":0}`,
	} {
		_, err := ParsePCProfile([]byte(`{"schema":"mipsx-pcprofile/v1","entries":[` + entries + `]}`))
		if err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
}
