// Package store implements a content-addressed on-disk artifact store
// with a crash-safe write protocol. It is the disk tier of the serving
// engine's cache: the in-memory LRU sits above it and consults it on
// miss, so a process restart finds its compiled
// artifacts and deterministic run results already on disk.
//
// Every entry is one file named by the SHA-256 of its key, under a
// two-character fanout directory. The file carries a fixed header
// (magic, key length, payload length, payload SHA-256) followed by the
// key and the payload. Writes go to a temp file in the same directory,
// are fsynced, and are atomically renamed into place; the parent
// directory is fsynced after the rename so the entry survives a crash.
// A reader validates the magic, the lengths, the embedded key, and the
// payload hash — any mismatch (truncation, corruption, collision)
// deletes the file and reports a miss, never an error. Losing a cache
// entry is always recoverable; serving a wrong one is not.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// magic identifies a store entry file and pins its format version.
// Bump the trailing digit on any incompatible layout change: old
// entries then fail validation and are treated as misses.
const magic = "cashsto1"

// headerSize is the fixed prefix before the key bytes: magic (8),
// key length (4, u32 LE), payload length (8, u64 LE), payload
// SHA-256 (32).
const headerSize = 8 + 4 + 8 + sha256.Size

// entExt is the extension of committed entry files. Temp files use
// ".tmp" and are deleted on Open; anything else in the tree is ignored.
const entExt = ".ent"

// Options configures a Dir.
type Options struct {
	// Budget bounds the total bytes of committed entry files. Zero or
	// negative means unlimited. When a Put pushes the total over the
	// budget, least-recently-used entries are deleted (the entry just
	// written is never the victim).
	Budget int64

	// OnEvict, when non-nil, is called with the key of every entry
	// removed by budget eviction. It is not called for entries dropped
	// because they failed validation.
	OnEvict func(key string)
}

// Dir is a content-addressed store rooted at one directory. All
// methods are safe for concurrent use.
type Dir struct {
	root string
	opts Options

	mu      sync.Mutex
	bytes   int64
	lru     []string           // keys, least recently used first
	entries map[string]*dirEnt // key -> entry
}

type dirEnt struct {
	size int64 // whole file size (header + key + payload)
	pos  int   // index into lru; maintained on every reorder
}

// Open opens (creating if needed) the store rooted at root. Leftover
// temp files from interrupted writes are deleted, and any committed
// entry whose header is unreadable or whose size disagrees with its
// header is removed. Payload hashes are NOT verified here — that
// happens on Get, so Open stays cheap on large stores.
func Open(root string, opts Options) (*Dir, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", root, err)
	}
	d := &Dir{root: root, opts: opts, entries: make(map[string]*dirEnt)}
	if err := d.scan(); err != nil {
		return nil, err
	}
	return d, nil
}

// scan walks the fanout tree, removing temp leftovers and invalid
// entries and rebuilding the LRU ordered by mtime (oldest first) so
// budget eviction after a reopen removes the stalest entries.
func (d *Dir) scan() error {
	type found struct {
		key   string
		size  int64
		mtime int64
		name  string
	}
	var all []found
	dirs, err := os.ReadDir(d.root)
	if err != nil {
		return fmt.Errorf("store: scan %s: %w", d.root, err)
	}
	for _, fan := range dirs {
		if !fan.IsDir() || len(fan.Name()) != 2 {
			continue
		}
		fanDir := filepath.Join(d.root, fan.Name())
		files, err := os.ReadDir(fanDir)
		if err != nil {
			return fmt.Errorf("store: scan %s: %w", fanDir, err)
		}
		for _, f := range files {
			if f.IsDir() {
				continue
			}
			path := filepath.Join(fanDir, f.Name())
			if strings.HasSuffix(f.Name(), ".tmp") {
				os.Remove(path)
				continue
			}
			if !strings.HasSuffix(f.Name(), entExt) {
				continue
			}
			key, size, mtime, ok := readEntryHeader(path)
			if !ok {
				os.Remove(path)
				continue
			}
			all = append(all, found{key: key, size: size, mtime: mtime, name: f.Name()})
		}
	}
	// Oldest first; ties broken by key hash for determinism.
	sort.Slice(all, func(i, j int) bool {
		if all[i].mtime != all[j].mtime {
			return all[i].mtime < all[j].mtime
		}
		return all[i].name < all[j].name
	})
	for _, f := range all {
		d.entries[f.key] = &dirEnt{size: f.size, pos: len(d.lru)}
		d.lru = append(d.lru, f.key)
		d.bytes += f.size
	}
	return nil
}

// readEntryHeader opens path, validates the fixed header against the
// file size, and returns the embedded key. The payload hash is not
// checked. ok is false for any unreadable or inconsistent file.
func readEntryHeader(path string) (key string, size, mtime int64, ok bool) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, 0, false
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return "", 0, 0, false
	}
	var hdr [headerSize]byte
	if _, err := f.Read(hdr[:]); err != nil {
		return "", 0, 0, false
	}
	keyLen, payloadLen, _, hok := parseHeader(hdr[:])
	if !hok {
		return "", 0, 0, false
	}
	want := int64(headerSize) + int64(keyLen) + int64(payloadLen)
	if st.Size() != want {
		return "", 0, 0, false
	}
	keyBuf := make([]byte, keyLen)
	if _, err := f.Read(keyBuf); err != nil {
		return "", 0, 0, false
	}
	if keyPath(path, string(keyBuf)) != path {
		return "", 0, 0, false
	}
	return string(keyBuf), st.Size(), st.ModTime().UnixNano(), true
}

// keyPath returns the canonical path an entry for key should live at,
// using the directory root inferred from an existing path's grandparent.
func keyPath(existing, key string) string {
	root := filepath.Dir(filepath.Dir(existing))
	h := sha256.Sum256([]byte(key))
	name := hex.EncodeToString(h[:])
	return filepath.Join(root, name[:2], name+entExt)
}

// maxKeyLen is the longest key an entry may embed; Put refuses longer
// (and empty) keys, which parseHeader would reject on every read.
const maxKeyLen = 1 << 20

// parseHeader decodes the fixed header prefix. ok is false when the
// magic is wrong or the lengths are absurd.
func parseHeader(hdr []byte) (keyLen uint32, payloadLen uint64, sum [sha256.Size]byte, ok bool) {
	if len(hdr) < headerSize || string(hdr[:8]) != magic {
		return 0, 0, sum, false
	}
	keyLen = binary.LittleEndian.Uint32(hdr[8:12])
	payloadLen = binary.LittleEndian.Uint64(hdr[12:20])
	copy(sum[:], hdr[20:headerSize])
	if keyLen == 0 || keyLen > maxKeyLen || payloadLen > 1<<40 {
		return 0, 0, sum, false
	}
	return keyLen, payloadLen, sum, true
}

// path returns the file an entry for key lives at.
func (d *Dir) path(key string) string {
	h := sha256.Sum256([]byte(key))
	name := hex.EncodeToString(h[:])
	return filepath.Join(d.root, name[:2], name+entExt)
}

// Path exposes the on-disk location of key's entry (which may or may
// not exist). Tests and tooling use it; the serving layers do not.
func (d *Dir) Path(key string) string { return d.path(key) }

// Get returns the payload stored under key. ok is false on a miss —
// including every corruption case: wrong magic, bad lengths, key
// mismatch, truncation, payload hash mismatch. A failed validation
// removes the file so the next Put can rewrite it cleanly.
func (d *Dir) Get(key string) (payload []byte, ok bool) {
	d.mu.Lock()
	_, known := d.entries[key]
	d.mu.Unlock()
	if !known {
		return nil, false
	}
	path := d.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		d.drop(key, path)
		return nil, false
	}
	payload, ok = validate(data, key)
	if !ok {
		d.drop(key, path)
		return nil, false
	}
	d.touch(key)
	return payload, true
}

// entry builds the whole entry file for key and payload: the header,
// the key, the payload. validate is its inverse.
func entry(key string, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	blob := make([]byte, 0, headerSize+len(key)+len(payload))
	blob = append(blob, magic...)
	blob = binary.LittleEndian.AppendUint32(blob, uint32(len(key)))
	blob = binary.LittleEndian.AppendUint64(blob, uint64(len(payload)))
	blob = append(blob, sum[:]...)
	blob = append(blob, key...)
	return append(blob, payload...)
}

// validate checks a whole entry file against key and returns its
// payload.
func validate(data []byte, key string) ([]byte, bool) {
	if len(data) < headerSize {
		return nil, false
	}
	keyLen, payloadLen, sum, ok := parseHeader(data[:headerSize])
	if !ok {
		return nil, false
	}
	want := headerSize + int(keyLen) + int(payloadLen)
	if int64(len(data)) != int64(want) {
		return nil, false
	}
	if string(data[headerSize:headerSize+int(keyLen)]) != key {
		return nil, false
	}
	payload := data[headerSize+int(keyLen):]
	if sha256.Sum256(payload) != sum {
		return nil, false
	}
	return payload, true
}

// drop forgets key and best-effort removes its file. Used when a read
// or validation fails; OnEvict is not called.
func (d *Dir) drop(key, path string) {
	d.mu.Lock()
	if ent, ok := d.entries[key]; ok {
		d.removeLocked(key, ent)
	}
	d.mu.Unlock()
	os.Remove(path)
}

// Remove forgets key and removes its entry file, if any. Callers use
// it for an entry that validates but that they cannot use — a payload
// from an older format — so the next Put rewrites it. OnEvict is not
// called.
func (d *Dir) Remove(key string) { d.drop(key, d.path(key)) }

// removeLocked deletes key from the index. Caller holds d.mu.
func (d *Dir) removeLocked(key string, ent *dirEnt) {
	d.bytes -= ent.size
	delete(d.entries, key)
	// Compact the LRU slice; fixing up pos keeps removal O(n) but n is
	// the entry count, and removals are rare (evictions and drops).
	copy(d.lru[ent.pos:], d.lru[ent.pos+1:])
	d.lru = d.lru[:len(d.lru)-1]
	for i := ent.pos; i < len(d.lru); i++ {
		d.entries[d.lru[i]].pos = i
	}
}

// touch moves key to the most-recently-used end.
func (d *Dir) touch(key string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	ent, ok := d.entries[key]
	if !ok || ent.pos == len(d.lru)-1 {
		return
	}
	copy(d.lru[ent.pos:], d.lru[ent.pos+1:])
	d.lru[len(d.lru)-1] = key
	for i := ent.pos; i < len(d.lru); i++ {
		d.entries[d.lru[i]].pos = i
	}
}

// Put stores payload under key with the crash-safe protocol:
// write-temp in the destination directory, fsync, atomic rename,
// fsync the directory. An existing entry for key is replaced. The
// error is advisory — a failed Put leaves the store consistent and
// callers treat it as "not cached".
func (d *Dir) Put(key string, payload []byte) error {
	if key == "" || len(key) > maxKeyLen {
		return fmt.Errorf("store: put: key length %d not in 1..%d", len(key), maxKeyLen)
	}
	path := d.path(key)
	fanDir := filepath.Dir(path)
	if err := os.MkdirAll(fanDir, 0o755); err != nil {
		return fmt.Errorf("store: put: %w", err)
	}

	blob := entry(key, payload)
	tmp, err := os.CreateTemp(fanDir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("store: put: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("store: put: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("store: put: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: put: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: put: %w", err)
	}
	syncDir(fanDir)

	size := int64(len(blob))
	var evicted []string
	d.mu.Lock()
	if old, ok := d.entries[key]; ok {
		d.removeLocked(key, old)
	}
	d.entries[key] = &dirEnt{size: size, pos: len(d.lru)}
	d.lru = append(d.lru, key)
	d.bytes += size
	if d.opts.Budget > 0 {
		for d.bytes > d.opts.Budget && len(d.lru) > 1 {
			victim := d.lru[0]
			ent := d.entries[victim]
			d.removeLocked(victim, ent)
			evicted = append(evicted, victim)
		}
	}
	d.mu.Unlock()

	for _, victim := range evicted {
		os.Remove(d.path(victim))
		if d.opts.OnEvict != nil {
			d.opts.OnEvict(victim)
		}
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
// Best effort: some filesystems reject directory fsync, and losing the
// entry on crash is an acceptable outcome.
func syncDir(dir string) {
	f, err := os.Open(dir)
	if err != nil {
		return
	}
	f.Sync()
	f.Close()
}

// Has reports whether key is indexed, without touching the LRU or the
// disk. A subsequent Get may still miss if the file was corrupted.
func (d *Dir) Has(key string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.entries[key]
	return ok
}

// Len returns the number of indexed entries.
func (d *Dir) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.entries)
}

// Bytes returns the total size of indexed entry files.
func (d *Dir) Bytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.bytes
}

// Close releases the store. The Dir holds no descriptors between
// operations, so Close is a no-op kept for the engine's shutdown path;
// operations after Close still work.
func (d *Dir) Close() error { return nil }

// IsNotExist reports whether err came from a missing root — callers
// that treat an absent store directory as "start empty" use it.
func IsNotExist(err error) bool {
	return errors.Is(err, fs.ErrNotExist)
}
