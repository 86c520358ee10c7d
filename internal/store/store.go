// Package store implements a content-addressed on-disk artifact store
// with a crash-safe write protocol. It is the disk tier of the serving
// engine's cache: the in-memory LRU sits above it and consults it on
// miss, so a process restart finds its compiled
// artifacts and deterministic run results already on disk.
//
// Every entry is one file, root/<id>.ent, where the id is the hex
// SHA-256 of its key; the root holds nothing else. The file is a
// 24-byte header, then the key, then the payload. The header is the
// magic "cashsto2" (8 bytes), the key length (u32 LE), the payload
// length (u64 LE) and the payload's CRC-32C (Castagnoli, u32 LE).
// Writes go to a temp file in the root, are fsynced, and are atomically
// renamed into place; the root is fsynced after the rename so the entry
// survives a crash.
//
// Open reads the root once and indexes every entry by its id, with the
// size and mtime the directory listing reports; it opens no entry file.
// A Get opens, reads and closes the file once — one read of exactly the
// indexed size — and validates the length, the magic, the header
// lengths, the embedded key and the payload checksum. Any mismatch
// (truncation, growth, corruption, collision) deletes the file and
// reports a miss, never an error. So no entry is served unvalidated,
// and Open's index may hold an entry that the first Get of it drops.
// Losing a cache entry is always recoverable; serving a wrong one is
// not.
//
// The checksum guards against torn writes and media corruption, not
// against a writer: whoever can edit the store can also rewrite a
// checksum, whatever its strength. Entries are found by the SHA-256 of
// their key, and the embedded key must match the one asked for.
//
// The least-recently-used order is a doubly linked list through the
// index entries, so a hit, a write and an eviction each cost O(1). On
// Open it is rebuilt from mtimes, oldest first.
//
// Older stores spread the same files over two-character fan-out
// directories, root/<id[:2]>/<id>.ent. Open deletes their entry and temp
// files and then the emptied directories; the next miss of each entry
// rewrites it.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
)

// magic identifies a store entry file and pins its format version.
// Bump the trailing digit on any incompatible layout change: old
// entries then fail validation and are treated as misses.
const magic = "cashsto2"

// headerSize is the fixed prefix before the key bytes: magic (8),
// key length (4, u32 LE), payload length (8, u64 LE), payload
// CRC-32C (4, u32 LE).
const headerSize = 8 + 4 + 8 + 4

// castagnoli is the CRC-32C table, which the hardware computes where it
// can.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// entExt is the extension of committed entry files. Temp files use
// ".tmp"; Open deletes them, and every other file in the root.
const entExt = ".ent"

// idLen is the length of an entry id: a hex SHA-256.
const idLen = 2 * sha256.Size

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
	entries map[string]*dirEnt // id -> entry
	// lru is the sentinel of the recency list: lru.next is the least
	// recently used entry, lru.prev the most.
	lru dirEnt
}

// dirEnt is one indexed entry and its link in the recency list.
type dirEnt struct {
	id         string
	key        string // "" until a Put or a validated Get learns it
	size       int64  // whole file size (header + key + payload); never changes
	prev, next *dirEnt
}

// Open opens (creating if needed) the store rooted at root. It reads
// the root once and opens no entry file. It deletes leftover temp files
// from interrupted writes, every other file not named <64 hex>.ent,
// every entry file shorter than a header, and the entry and temp files
// of the old fan-out layout along with their emptied directories. Every
// other entry file is indexed at the size the listing reports, so Len
// and Bytes count an entry whose header is corrupt until its first Get
// drops it, and Bytes is the disk use of the entry files. Nothing
// else of an entry is checked here; Get checks all of it on each read.
func Open(root string, opts Options) (*Dir, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", root, err)
	}
	d := &Dir{root: root, opts: opts, entries: make(map[string]*dirEnt)}
	d.lru.prev, d.lru.next = &d.lru, &d.lru
	if err := d.scan(); err != nil {
		return nil, err
	}
	return d, nil
}

// scan lists the root, removing what Open removes and rebuilding the
// LRU ordered by mtime (oldest first) so budget eviction after a reopen
// removes the stalest entries.
func (d *Dir) scan() error {
	type found struct {
		id    string
		size  int64
		mtime int64
	}
	var all []found
	files, err := os.ReadDir(d.root)
	if err != nil {
		return fmt.Errorf("store: scan %s: %w", d.root, err)
	}
	for _, f := range files {
		name := f.Name()
		path := filepath.Join(d.root, name)
		if f.IsDir() {
			if len(name) == 2 {
				removeFanDir(path)
			}
			continue
		}
		id, isEnt := strings.CutSuffix(name, entExt)
		if !isEnt || !validID(id) {
			os.Remove(path)
			continue
		}
		info, err := f.Info()
		if err != nil {
			continue // removed since the listing
		}
		if info.Size() < headerSize {
			os.Remove(path)
			continue
		}
		all = append(all, found{id: id, size: info.Size(), mtime: info.ModTime().UnixNano()})
	}
	// Oldest first; ties broken by id for determinism.
	sort.Slice(all, func(i, j int) bool {
		if all[i].mtime != all[j].mtime {
			return all[i].mtime < all[j].mtime
		}
		return all[i].id < all[j].id
	})
	for _, f := range all {
		ent := &dirEnt{id: f.id, size: f.size}
		d.entries[f.id] = ent
		d.pushBackLocked(ent)
		d.bytes += f.size
	}
	return nil
}

// removeFanDir deletes the entry and temp files of an old-layout fan-out
// directory, then the directory if that emptied it.
func removeFanDir(dir string) {
	files, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, f := range files {
		if name := f.Name(); !f.IsDir() && (strings.HasSuffix(name, entExt) || strings.HasSuffix(name, ".tmp")) {
			os.Remove(filepath.Join(dir, name))
		}
	}
	os.Remove(dir) // fails, harmlessly, on a directory that is not empty
}

// validID reports whether id is a lowercase hex SHA-256, as keyID writes.
func validID(id string) bool {
	if len(id) != idLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		if c := id[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// keyID returns the id of key's entry: the hex SHA-256 of the key.
func keyID(key string) string {
	h := sha256.Sum256([]byte(key))
	return hex.EncodeToString(h[:])
}

// maxKeyLen is the longest key an entry may embed; Put refuses longer
// (and empty) keys, which parseHeader would reject on every read.
const maxKeyLen = 1 << 20

// parseHeader decodes the fixed header prefix. ok is false when the
// magic is wrong or the lengths are absurd.
func parseHeader(hdr []byte) (keyLen uint32, payloadLen uint64, sum uint32, ok bool) {
	if len(hdr) < headerSize || string(hdr[:8]) != magic {
		return 0, 0, 0, false
	}
	keyLen = binary.LittleEndian.Uint32(hdr[8:12])
	payloadLen = binary.LittleEndian.Uint64(hdr[12:20])
	sum = binary.LittleEndian.Uint32(hdr[20:headerSize])
	if keyLen == 0 || keyLen > maxKeyLen || payloadLen > 1<<40 {
		return 0, 0, 0, false
	}
	return keyLen, payloadLen, sum, true
}

// path returns the file the entry with the given id lives at.
func (d *Dir) path(id string) string {
	return filepath.Join(d.root, id+entExt)
}

// Path exposes the on-disk location of key's entry (which may or may
// not exist). Tests and tooling use it; the serving layers do not.
func (d *Dir) Path(key string) string { return d.path(keyID(key)) }

// Get returns the payload stored under key. ok is false on a miss —
// including every corruption case: a length other than the indexed
// one, wrong magic, bad lengths, key mismatch, payload checksum
// mismatch. A failed read or validation removes the file so the next
// Put can rewrite it cleanly.
func (d *Dir) Get(key string) (payload []byte, ok bool) {
	id := keyID(key)
	d.mu.Lock()
	ent := d.entries[id]
	d.mu.Unlock()
	if ent == nil {
		return nil, false
	}
	data, ok := readEntry(d.path(id), ent.size)
	if ok {
		payload, ok = validate(data, key)
	}
	if !ok {
		d.drop(ent)
		return nil, false
	}
	d.mu.Lock()
	if d.entries[id] == ent {
		ent.key = key
		d.unlinkLocked(ent)
		d.pushBackLocked(ent)
	}
	d.mu.Unlock()
	return payload, true
}

// readEntry reads the entry file at path, which the index says is size
// bytes long. It asks for one byte more, so that one read returns the
// whole file and shows whether it has grown; ok is false when the file
// cannot be read or its length is not size. It makes the open, read and
// close system calls itself: an os.File adds allocations, a finalizer
// and poller bookkeeping, about a third of a small entry's read.
func readEntry(path string, size int64) (data []byte, ok bool) {
	fd, err := syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	for err == syscall.EINTR {
		fd, err = syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	}
	if err != nil {
		return nil, false
	}
	defer syscall.Close(fd)
	buf := make([]byte, size+1)
	n := 0
	for int64(n) < size { // one read, unless it comes back short
		m, err := syscall.Read(fd, buf[n:])
		if err == syscall.EINTR {
			continue
		}
		if err != nil || m <= 0 {
			break
		}
		n += m
	}
	return buf[:size], int64(n) == size
}

// entry builds the whole entry file for key and payload: the header,
// the key, the payload. validate is its inverse.
func entry(key string, payload []byte) []byte {
	blob := make([]byte, 0, headerSize+len(key)+len(payload))
	blob = append(blob, magic...)
	blob = binary.LittleEndian.AppendUint32(blob, uint32(len(key)))
	blob = binary.LittleEndian.AppendUint64(blob, uint64(len(payload)))
	blob = binary.LittleEndian.AppendUint32(blob, crc32.Checksum(payload, castagnoli))
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
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, false
	}
	return payload, true
}

// drop forgets ent and best-effort removes its file, after a read or
// validation of it failed; OnEvict is not called. An entry a Put has
// replaced since is left alone.
func (d *Dir) drop(ent *dirEnt) {
	d.mu.Lock()
	current := d.entries[ent.id] == ent
	if current {
		d.removeLocked(ent)
	}
	d.mu.Unlock()
	if current {
		os.Remove(d.path(ent.id))
	}
}

// Remove forgets key and removes its entry file, if any. Callers use
// it for an entry that validates but that they cannot use — a payload
// from an older format — so the next Put rewrites it. OnEvict is not
// called.
func (d *Dir) Remove(key string) {
	id := keyID(key)
	d.mu.Lock()
	if ent := d.entries[id]; ent != nil {
		d.removeLocked(ent)
	}
	d.mu.Unlock()
	os.Remove(d.path(id))
}

// removeLocked deletes ent from the index. Caller holds d.mu.
func (d *Dir) removeLocked(ent *dirEnt) {
	d.bytes -= ent.size
	delete(d.entries, ent.id)
	d.unlinkLocked(ent)
}

// unlinkLocked takes ent out of the recency list. Caller holds d.mu.
func (d *Dir) unlinkLocked(ent *dirEnt) {
	ent.prev.next, ent.next.prev = ent.next, ent.prev
	ent.prev, ent.next = nil, nil
}

// pushBackLocked appends ent as the most recently used entry. Caller
// holds d.mu.
func (d *Dir) pushBackLocked(ent *dirEnt) {
	last := d.lru.prev
	ent.prev, ent.next = last, &d.lru
	last.next, d.lru.prev = ent, ent
}

// Put stores payload under key with the crash-safe protocol:
// write-temp in the root, fsync, atomic rename, fsync the root. An
// existing entry for key is replaced. The error is advisory — a failed
// Put leaves the store consistent and callers treat it as "not cached".
func (d *Dir) Put(key string, payload []byte) error {
	if key == "" || len(key) > maxKeyLen {
		return fmt.Errorf("store: put: key length %d not in 1..%d", len(key), maxKeyLen)
	}
	id := keyID(key)
	path := d.path(id)

	blob := entry(key, payload)
	tmp, err := os.CreateTemp(d.root, "put-*.tmp")
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
	syncDir(d.root)

	ent := &dirEnt{id: id, key: key, size: int64(len(blob))}
	var evicted []*dirEnt
	d.mu.Lock()
	if old := d.entries[id]; old != nil {
		d.removeLocked(old)
	}
	d.entries[id] = ent
	d.pushBackLocked(ent)
	d.bytes += ent.size
	if d.opts.Budget > 0 {
		for d.bytes > d.opts.Budget && d.lru.next != ent {
			victim := d.lru.next
			d.removeLocked(victim)
			evicted = append(evicted, victim)
		}
	}
	d.mu.Unlock()

	for _, victim := range evicted {
		d.evict(victim)
	}
	return nil
}

// evict deletes the file of an entry that budget eviction took out of
// the index and reports its key to OnEvict. A key the Dir never learned
// (an entry indexed by Open and not read since) is read from the file's
// header first; a file whose header does not name a key with its id is
// an invalid entry, removed without OnEvict.
func (d *Dir) evict(victim *dirEnt) {
	path := d.path(victim.id)
	key := victim.key
	if key == "" && d.opts.OnEvict != nil {
		key = readKey(path, victim.id)
	}
	os.Remove(path)
	if key != "" && d.opts.OnEvict != nil {
		d.opts.OnEvict(key)
	}
}

// readKey returns the key embedded in the entry file at path, or "" when
// the header is unreadable or the key does not hash to id.
func readKey(path, id string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	var hdr [headerSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return ""
	}
	keyLen, _, _, ok := parseHeader(hdr[:])
	if !ok {
		return ""
	}
	key := make([]byte, keyLen)
	if _, err := io.ReadFull(f, key); err != nil || keyID(string(key)) != id {
		return ""
	}
	return string(key)
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
	id := keyID(key)
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.entries[id]
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
