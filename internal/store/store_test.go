package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestPutGetRoundtrip(t *testing.T) {
	d, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("hello, segmented world")
	if err := d.Put("a:key1", payload); err != nil {
		t.Fatal(err)
	}
	got, ok := d.Get("a:key1")
	if !ok {
		t.Fatal("expected hit")
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: got %q want %q", got, payload)
	}
	if _, ok := d.Get("a:absent"); ok {
		t.Fatal("expected miss for absent key")
	}
	if d.Len() != 1 {
		t.Fatalf("Len = %d, want 1", d.Len())
	}
}

func TestReopenFindsEntries(t *testing.T) {
	root := t.TempDir()
	d, err := Open(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("a:key%d", i)
		if err := d.Put(key, []byte(strings.Repeat("x", 100+i))); err != nil {
			t.Fatal(err)
		}
	}
	wantBytes := d.Bytes()

	d2, err := Open(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d2.Len() != 5 {
		t.Fatalf("reopened Len = %d, want 5", d2.Len())
	}
	if d2.Bytes() != wantBytes {
		t.Fatalf("reopened Bytes = %d, want %d", d2.Bytes(), wantBytes)
	}
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("a:key%d", i)
		got, ok := d2.Get(key)
		if !ok {
			t.Fatalf("reopened store missed %s", key)
		}
		if want := []byte(strings.Repeat("x", 100+i)); !bytes.Equal(got, want) {
			t.Fatalf("%s payload mismatch after reopen", key)
		}
	}
}

func TestTruncatedEntryIsMissNotError(t *testing.T) {
	d, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put("a:victim", []byte(strings.Repeat("y", 500))); err != nil {
		t.Fatal(err)
	}
	path := d.Path("a:victim")
	if err := os.Truncate(path, 17); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get("a:victim"); ok {
		t.Fatal("truncated entry must read as a miss")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("invalid entry file should be removed after failed Get")
	}
	// A rebuilt entry must round-trip again.
	if err := d.Put("a:victim", []byte("rebuilt")); err != nil {
		t.Fatal(err)
	}
	got, ok := d.Get("a:victim")
	if !ok || string(got) != "rebuilt" {
		t.Fatalf("rebuilt entry: ok=%v got=%q", ok, got)
	}
}

func TestCorruptedPayloadIsMiss(t *testing.T) {
	d, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put("a:victim", []byte(strings.Repeat("z", 500))); err != nil {
		t.Fatal(err)
	}
	path := d.Path("a:victim")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-10] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get("a:victim"); ok {
		t.Fatal("hash-mismatched entry must read as a miss")
	}
}

func TestReopenDropsInvalidAndTemp(t *testing.T) {
	root := t.TempDir()
	d, err := Open(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put("a:good", []byte("good")); err != nil {
		t.Fatal(err)
	}
	if err := d.Put("a:bad", []byte(strings.Repeat("b", 300))); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(d.Path("a:bad"), 40); err != nil {
		t.Fatal(err)
	}
	// Simulate an interrupted write: a leftover temp file.
	fan := filepath.Dir(d.Path("a:good"))
	tmpPath := filepath.Join(fan, "put-stale.tmp")
	if err := os.WriteFile(tmpPath, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d2.Len() != 1 {
		t.Fatalf("reopened Len = %d, want 1 (invalid entry dropped)", d2.Len())
	}
	if _, ok := d2.Get("a:good"); !ok {
		t.Fatal("valid entry lost on reopen")
	}
	if _, ok := d2.Get("a:bad"); ok {
		t.Fatal("truncated entry survived reopen")
	}
	if _, err := os.Stat(tmpPath); !os.IsNotExist(err) {
		t.Fatal("temp leftover not cleaned on reopen")
	}
}

func TestBudgetEviction(t *testing.T) {
	var evicted []string
	d, err := Open(t.TempDir(), Options{
		Budget:  2000,
		OnEvict: func(key string) { evicted = append(evicted, key) },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each entry is ~headerSize + keyLen + 600 bytes; three fit, the
	// fourth evicts the least recently used.
	for i := 0; i < 3; i++ {
		if err := d.Put(fmt.Sprintf("a:k%d", i), bytes.Repeat([]byte{byte(i)}, 520)); err != nil {
			t.Fatal(err)
		}
	}
	if len(evicted) != 0 {
		t.Fatalf("premature eviction: %v", evicted)
	}
	// Touch k0 so k1 becomes the LRU victim.
	if _, ok := d.Get("a:k0"); !ok {
		t.Fatal("k0 missing")
	}
	if err := d.Put("a:k3", bytes.Repeat([]byte{3}, 520)); err != nil {
		t.Fatal(err)
	}
	if len(evicted) == 0 {
		t.Fatal("expected an eviction")
	}
	if evicted[0] != "a:k1" {
		t.Fatalf("evicted %v, want a:k1 first", evicted)
	}
	if _, ok := d.Get("a:k1"); ok {
		t.Fatal("evicted entry still readable")
	}
	if _, ok := d.Get("a:k0"); !ok {
		t.Fatal("recently used entry was evicted")
	}
	if d.opts.Budget > 0 && d.Bytes() > d.opts.Budget {
		t.Fatalf("bytes %d over budget %d", d.Bytes(), d.opts.Budget)
	}
}

func TestReplacementAccounting(t *testing.T) {
	d, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put("a:k", bytes.Repeat([]byte{1}, 1000)); err != nil {
		t.Fatal(err)
	}
	if err := d.Put("a:k", bytes.Repeat([]byte{2}, 10)); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 1 {
		t.Fatalf("Len = %d after replacement, want 1", d.Len())
	}
	want := int64(headerSize + len("a:k") + 10)
	if d.Bytes() != want {
		t.Fatalf("Bytes = %d after replacement, want %d (old size leaked)", d.Bytes(), want)
	}
	got, ok := d.Get("a:k")
	if !ok || len(got) != 10 || got[0] != 2 {
		t.Fatalf("replacement payload wrong: ok=%v got=%v", ok, got)
	}
}

func TestConcurrentPutGet(t *testing.T) {
	d, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("a:w%d-i%d", w, i%10)
				if err := d.Put(key, []byte(key)); err != nil {
					t.Error(err)
					return
				}
				if got, ok := d.Get(key); ok && string(got) != key {
					t.Errorf("wrong payload for %s: %q", key, got)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
}

func TestRemoveForgetsEntry(t *testing.T) {
	d, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put("r:k", []byte("old format")); err != nil {
		t.Fatal(err)
	}
	d.Remove("r:k")
	d.Remove("r:absent") // a no-op
	if d.Has("r:k") || d.Len() != 0 || d.Bytes() != 0 {
		t.Fatalf("after Remove: has=%v len=%d bytes=%d", d.Has("r:k"), d.Len(), d.Bytes())
	}
	if _, err := os.Stat(d.Path("r:k")); !os.IsNotExist(err) {
		t.Fatalf("entry file survived Remove: %v", err)
	}
}

// TestPutRefusesUnloadableKeys pins that Put writes no entry that every
// Get would reject: an empty key, or one longer than the header allows.
func TestPutRefusesUnloadableKeys(t *testing.T) {
	d, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", strings.Repeat("k", maxKeyLen+1)} {
		if err := d.Put(key, []byte("p")); err == nil {
			t.Errorf("Put with a %d-byte key must fail", len(key))
		}
	}
	if d.Len() != 0 {
		t.Fatalf("Len = %d after refused Puts, want 0", d.Len())
	}
	long := strings.Repeat("k", maxKeyLen)
	if err := d.Put(long, []byte("p")); err != nil {
		t.Fatal(err)
	}
	if got, ok := d.Get(long); !ok || string(got) != "p" {
		t.Fatalf("longest key did not round-trip: ok=%v", ok)
	}
}
