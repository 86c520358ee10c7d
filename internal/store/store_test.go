package store

import (
	"bytes"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
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
		t.Fatal("checksum-mismatched entry must read as a miss")
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
	if err := os.Truncate(d.Path("a:bad"), headerSize-1); err != nil {
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

// TestOpenRemovesOldLayout pins that Open deletes the entry and temp
// files of the old fan-out layout and then its emptied directories,
// indexes none of them, and deletes any other file in the root.
func TestOpenRemovesOldLayout(t *testing.T) {
	root := t.TempDir()
	d, err := Open(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put("a:flat", []byte("flat")); err != nil {
		t.Fatal(err)
	}
	old := entry("a:old", []byte("fan-out"))
	id := keyID("a:old")
	for name, data := range map[string][]byte{
		filepath.Join(id[:2], id+entExt):           old,
		filepath.Join(id[:2], "put-1.tmp"):         []byte("partial"),
		filepath.Join("ab", keyID("a:x")+entExt):   entry("a:x", nil),
		keyID("a:flat")[:10] + entExt:              old, // not an id
		"notes.txt":                                []byte("stray"),
		"put-2.tmp":                                []byte("partial"),
		filepath.Join("cd", "put-3.tmp"):           []byte("partial"),
		filepath.Join("ef", keyID("a:y")+".ent.x"): []byte("kept"),
	} {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	d2, err := Open(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d2.Len() != 1 || d2.Has("a:old") {
		t.Fatalf("reopened Len = %d, has old-layout entry = %v; want only the flat entry", d2.Len(), d2.Has("a:old"))
	}
	if got, ok := d2.Get("a:flat"); !ok || string(got) != "flat" {
		t.Fatalf("flat entry: ok=%v got=%q", ok, got)
	}
	var left []string
	err = filepath.WalkDir(root, func(p string, e fs.DirEntry, err error) error {
		if err == nil && p != root {
			rel, _ := filepath.Rel(root, p)
			left = append(left, rel)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// A fan-out directory that holds a file the store never writes keeps
	// that file; every other directory and stray file is gone.
	want := []string{keyID("a:flat") + entExt, "ef", filepath.Join("ef", keyID("a:y")+".ent.x")}
	sort.Strings(want)
	if !reflect.DeepEqual(left, want) {
		t.Fatalf("after Open the root holds %q, want %q", left, want)
	}
}

// TestReopenValidatesOnFirstGet pins what Open no longer checks: an
// entry whose header is corrupt but whose length is intact is indexed
// (and counted by Len and Bytes) until its first Get, which misses and
// removes it; likewise an entry whose length changes after Open.
func TestReopenValidatesOnFirstGet(t *testing.T) {
	root := t.TempDir()
	d, err := Open(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	size := func(key string) int64 { return int64(headerSize + len(key) + 200) }
	var total int64
	for _, key := range []string{"a:corrupt", "a:grows", "a:shrinks", "a:good"} {
		if err := d.Put(key, []byte(strings.Repeat("p", 200))); err != nil {
			t.Fatal(err)
		}
		total += size(key)
	}
	corrupt := d.Path("a:corrupt")
	data, err := os.ReadFile(corrupt)
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0xff // the magic
	if err := os.WriteFile(corrupt, data, 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d2.Len() != 4 || d2.Bytes() != total {
		t.Fatalf("reopened Len = %d Bytes = %d, want 4 and %d", d2.Len(), d2.Bytes(), total)
	}
	grows, shrinks := d2.Path("a:grows"), d2.Path("a:shrinks")
	f, err := os.OpenFile(grows, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(shrinks, size("a:shrinks")-1); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"a:corrupt", "a:grows", "a:shrinks"} {
		if _, ok := d2.Get(key); ok {
			t.Errorf("%s: first Get after reopen must miss", key)
		}
		if _, err := os.Stat(d2.Path(key)); !os.IsNotExist(err) {
			t.Errorf("%s: file survived the failed Get: %v", key, err)
		}
	}
	if d2.Len() != 1 || d2.Bytes() != size("a:good") {
		t.Fatalf("after the misses Len = %d Bytes = %d, want 1 and %d", d2.Len(), d2.Bytes(), size("a:good"))
	}
	if _, ok := d2.Get("a:good"); !ok {
		t.Fatal("intact entry lost")
	}
}

// TestModelLRU drives a budgeted Dir with random Puts, Gets, Removes and
// reopens and checks it against a reference LRU kept as a slice: the
// same entries, Len, Bytes, payloads, and the same keys handed to
// OnEvict in the same order — including the keys of entries evicted
// before any Get of them since a reopen, which the Dir reads back from
// their headers. Each Put stamps its file with the next whole second,
// so a reopen's mtime order is the order the model expects.
func TestModelLRU(t *testing.T) {
	const budget = 1500
	root := t.TempDir()
	var evicted []string
	opts := Options{Budget: budget, OnEvict: func(key string) { evicted = append(evicted, key) }}
	d, err := Open(root, opts)
	if err != nil {
		t.Fatal(err)
	}

	type modelEnt struct {
		key     string
		payload []byte
		seq     int // order of the Put that wrote it
	}
	var lru []modelEnt // least recently used first
	var wantEvicted []string
	find := func(key string) int {
		for i, e := range lru {
			if e.key == key {
				return i
			}
		}
		return -1
	}
	size := func(e modelEnt) int64 { return int64(headerSize + len(e.key) + len(e.payload)) }

	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 2000; step++ {
		key := fmt.Sprintf("a:k%d", rng.Intn(16))
		switch op := rng.Intn(10); {
		case op < 4:
			payload := bytes.Repeat([]byte{byte(step)}, rng.Intn(300))
			if err := d.Put(key, payload); err != nil {
				t.Fatal(err)
			}
			stamp := time.Unix(int64(1_000_000+step), 0)
			if err := os.Chtimes(d.Path(key), stamp, stamp); err != nil {
				t.Fatal(err)
			}
			if i := find(key); i >= 0 {
				lru = append(lru[:i], lru[i+1:]...)
			}
			lru = append(lru, modelEnt{key: key, payload: payload, seq: step})
			var total int64
			for _, e := range lru {
				total += size(e)
			}
			for total > budget && len(lru) > 1 {
				total -= size(lru[0])
				wantEvicted = append(wantEvicted, lru[0].key)
				lru = lru[1:]
			}
		case op < 8:
			got, ok := d.Get(key)
			i := find(key)
			if ok != (i >= 0) {
				t.Fatalf("step %d: Get(%s) ok=%v, model has it: %v", step, key, ok, i >= 0)
			}
			if i >= 0 {
				if !bytes.Equal(got, lru[i].payload) {
					t.Fatalf("step %d: Get(%s) payload differs", step, key)
				}
				e := lru[i]
				lru = append(append(lru[:i], lru[i+1:]...), e)
			}
		case op < 9:
			d.Remove(key)
			if i := find(key); i >= 0 {
				lru = append(lru[:i], lru[i+1:]...)
			}
		default:
			if d, err = Open(root, opts); err != nil {
				t.Fatal(err)
			}
			sort.SliceStable(lru, func(i, j int) bool { return lru[i].seq < lru[j].seq })
		}
		var total int64
		for _, e := range lru {
			total += size(e)
		}
		if d.Len() != len(lru) || d.Bytes() != total {
			t.Fatalf("step %d: Len = %d Bytes = %d, model %d and %d", step, d.Len(), d.Bytes(), len(lru), total)
		}
		if !reflect.DeepEqual(evicted, wantEvicted) {
			t.Fatalf("step %d: OnEvict saw %q, model evicted %q", step, evicted, wantEvicted)
		}
	}
	if len(wantEvicted) < 100 {
		t.Fatalf("only %d evictions: the budget does not bind", len(wantEvicted))
	}
}
