package spill

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// writeBody is the opaque payload the tests spill; contents are irrelevant
// to the envelope checks.
func writeBody(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i * 7)
	}
	return b
}

func openTestDir(t *testing.T, budget int64, keep bool) *Dir {
	t.Helper()
	d, err := Open(OS{}, t.TempDir(), budget, keep)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return d
}

func TestWriteReadRoundTrip(t *testing.T) {
	d := openTestDir(t, 0, false)
	body := writeBody(256)
	h, err := d.Write("k1-t8-r0"+Ext, 42, body)
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	r, err := d.Read(h)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	got := r.Rest()
	if len(got) != len(body) {
		t.Fatalf("body length %d, want %d", len(got), len(body))
	}
	for i := range got {
		if got[i] != body[i] {
			t.Fatalf("body byte %d = %#x, want %#x", i, got[i], body[i])
		}
	}
	if files, bytes, _ := d.Stats(); files != 1 || bytes != h.Size() {
		t.Fatalf("Stats = (%d files, %d bytes), want (1, %d)", files, bytes, h.Size())
	}
	d.Release(h)
	if files, bytes, _ := d.Stats(); files != 0 || bytes != 0 {
		t.Fatalf("after Release: Stats = (%d files, %d bytes), want (0, 0)", files, bytes)
	}
}

func TestReadMissingFile(t *testing.T) {
	d := openTestDir(t, 0, false)
	h, err := d.Write("k1-t8-r0"+Ext, 1, writeBody(64))
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := os.Remove(filepath.Join(d.Path(), h.Name())); err != nil {
		t.Fatalf("removing spill file: %v", err)
	}
	if _, err := d.Read(h); !errors.Is(err, ErrMissing) {
		t.Fatalf("Read after delete = %v, want ErrMissing", err)
	}
}

func TestReadTruncatedFile(t *testing.T) {
	d := openTestDir(t, 0, false)
	h, err := d.Write("k1-t8-r0"+Ext, 1, writeBody(64))
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	full := filepath.Join(d.Path(), h.Name())
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(full, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Read(h); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Read of truncated file = %v, want ErrTruncated", err)
	}
}

func TestReadFlippedChecksumByte(t *testing.T) {
	d := openTestDir(t, 0, false)
	h, err := d.Write("k1-t8-r0"+Ext, 1, writeBody(64))
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	full := filepath.Join(d.Path(), h.Name())
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF // flip one body byte; size unchanged
	if err := os.WriteFile(full, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Read(h); !errors.Is(err, ErrChecksum) {
		t.Fatalf("Read of bit-flipped file = %v, want ErrChecksum", err)
	}
}

func TestReadWrongGenerationStamp(t *testing.T) {
	d := openTestDir(t, 0, false)
	body := writeBody(64)
	h, err := d.Write("k1-t8-r0"+Ext, 7, body)
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	// Another shard incarnation rewrites the same name with a new stamp;
	// the old handle must observe staleness, not the new bytes.
	if _, err := d.Write("k1-t8-r0"+Ext, 8, body); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if _, err := d.Read(h); !errors.Is(err, ErrStale) {
		t.Fatalf("Read with stale handle = %v, want ErrStale", err)
	}
}

// failFS injects write failures — the ENOSPC / read-only-directory seam.
type failFS struct {
	OS
	writeErr error
}

func (f *failFS) WriteFile(name string, b []byte) error {
	if f.writeErr != nil {
		return f.writeErr
	}
	return f.OS.WriteFile(name, b)
}

func TestWriteFailureSurfacesError(t *testing.T) {
	enospc := fmt.Errorf("write %s: no space left on device", "x")
	fs := &failFS{writeErr: enospc}
	d, err := Open(fs, t.TempDir(), 0, false)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := d.Write("k1-t8-r0"+Ext, 1, writeBody(64)); !errors.Is(err, enospc) {
		t.Fatalf("Write with failing FS = %v, want wrapped ENOSPC", err)
	}
	if files, bytes, _ := d.Stats(); files != 0 || bytes != 0 {
		t.Fatalf("failed write left accounting at (%d files, %d bytes), want (0, 0)", files, bytes)
	}
}

func TestWriteOverBudget(t *testing.T) {
	d := openTestDir(t, 16, false) // smaller than any envelope
	if _, err := d.Write("k1-t8-r0"+Ext, 1, writeBody(64)); !errors.Is(err, ErrOverBudget) {
		t.Fatalf("Write into tiny budget = %v, want ErrOverBudget", err)
	}
}

func TestOversizeWriteEvictsNothing(t *testing.T) {
	d := openTestDir(t, 0, false)
	h1, err := d.Write("k1-t8-r0"+Ext, 1, writeBody(256))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := d.Write("k2-t8-r0"+Ext, 2, writeBody(256))
	if err != nil {
		t.Fatal(err)
	}
	d.SetBudget(h1.Size() + h2.Size())
	filesBefore, bytesBefore, _ := d.Stats()
	// An image larger than the whole budget cannot fit however much is
	// deleted, so the write must fail without emptying the tier.
	if _, err := d.Write("k3-t8-r0"+Ext, 3, writeBody(1024)); !errors.Is(err, ErrOverBudget) {
		t.Fatalf("oversize Write = %v, want ErrOverBudget", err)
	}
	if files, bytes, _ := d.Stats(); files != filesBefore || bytes != bytesBefore {
		t.Fatalf("oversize Write changed Stats to (%d files, %d bytes), want (%d, %d)", files, bytes, filesBefore, bytesBefore)
	}
	for i, h := range []*Handle{h1, h2} {
		if _, err := d.Read(h); err != nil {
			t.Fatalf("file %d should survive an oversize write; Read = %v", i+1, err)
		}
	}
}

func TestBudgetMakesRoomOldestFirst(t *testing.T) {
	d := openTestDir(t, 0, false)
	h1, err := d.Write("k1-t8-r0"+Ext, 1, writeBody(256))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := d.Write("k2-t8-r0"+Ext, 2, writeBody(256))
	if err != nil {
		t.Fatal(err)
	}
	// Budget fits two files: the third write evicts only the oldest.
	d.SetBudget(2*h1.Size() + h2.Size()/2)
	if _, err := d.Write("k3-t8-r0"+Ext, 3, writeBody(256)); err != nil {
		t.Fatalf("budgeted write: %v", err)
	}
	if _, err := d.Read(h1); !errors.Is(err, ErrMissing) {
		t.Fatalf("oldest file should have been evicted for room; Read = %v, want ErrMissing", err)
	}
	if _, err := d.Read(h2); err != nil {
		t.Fatalf("newer file should survive room-making; Read = %v", err)
	}
}

func TestOpenScavengesAnonAndCorrupt(t *testing.T) {
	path := t.TempDir()
	d, err := Open(OS{}, path, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	// A keyed file released in keep mode becomes an orphan on disk…
	h, err := d.Write("keyed-t8-r0"+Ext, 5, writeBody(64))
	if err != nil {
		t.Fatal(err)
	}
	d.Release(h)
	// …an anonymous file and a corrupt file are startup-scavenge fodder.
	if _, err := d.Write(AnonPrefix+"1-t8-r0"+Ext, 6, writeBody(64)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(path, "corrupt-t8-r0"+Ext), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(path, "unrelated.txt"), []byte("keep me"), 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(OS{}, path, 0, true)
	if err != nil {
		t.Fatalf("re-Open: %v", err)
	}
	files, _, scavenged := d2.Stats()
	if files != 1 {
		t.Fatalf("re-Open indexed %d files, want 1 (the keyed orphan)", files)
	}
	if scavenged != 2 {
		t.Fatalf("re-Open scavenged %d files, want 2 (anon + corrupt)", scavenged)
	}
	if _, err := os.Stat(filepath.Join(path, "unrelated.txt")); err != nil {
		t.Fatalf("scavenge touched a non-spill file: %v", err)
	}
	h2, ok := d2.TakeOrphan("keyed-t8-r0" + Ext)
	if !ok {
		t.Fatal("TakeOrphan failed on the surviving keyed file")
	}
	if h2.gen != 5 {
		t.Fatalf("adopted orphan carries gen %d, want 5", h2.gen)
	}
	if r, err := d2.Read(h2); err != nil || r.Remaining() != 64 {
		t.Fatalf("adopted orphan Read = (%v remaining, %v), want (64, nil)", r.Remaining(), err)
	}
	if _, ok := d2.TakeOrphan("keyed-t8-r0" + Ext); ok {
		t.Fatal("TakeOrphan succeeded twice for one orphan")
	}
}

func TestReleaseKeepLeavesOrphan(t *testing.T) {
	d := openTestDir(t, 0, true)
	h, err := d.Write("keyed-t8-r0"+Ext, 9, writeBody(64))
	if err != nil {
		t.Fatal(err)
	}
	d.Release(h)
	if _, err := os.Stat(filepath.Join(d.Path(), h.Name())); err != nil {
		t.Fatalf("keep-mode Release deleted the file: %v", err)
	}
	if h2, ok := d.TakeOrphan(h.Name()); !ok || h2.gen != 9 {
		t.Fatalf("released file not adoptable as orphan (ok=%v)", ok)
	}
}

func TestDiscardAlwaysDeletes(t *testing.T) {
	d := openTestDir(t, 0, true) // even in keep mode
	h, err := d.Write("keyed-t8-r0"+Ext, 9, writeBody(64))
	if err != nil {
		t.Fatal(err)
	}
	d.Discard(h)
	if _, err := os.Stat(filepath.Join(d.Path(), h.Name())); !os.IsNotExist(err) {
		t.Fatalf("Discard left the file behind (stat err=%v)", err)
	}
	if files, bytes, _ := d.Stats(); files != 0 || bytes != 0 {
		t.Fatalf("Discard left accounting at (%d, %d)", files, bytes)
	}
}
