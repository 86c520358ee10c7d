package store

import (
	"bytes"
	"testing"
)

// FuzzValidate feeds arbitrary entry files and keys to validate, the
// check every Get runs on bytes read from disk (header parse, lengths,
// embedded key, payload checksum). It must never panic; an accepted file
// must be exactly the entry Put would write for that key and payload;
// and every entry Put would write must be accepted.
func FuzzValidate(f *testing.F) {
	good := entry("a:0123abcd", []byte("payload bytes"))
	f.Add(good, "a:0123abcd")
	f.Add(good, "a:0123abce")
	f.Add(good[:headerSize+3], "a:0123abcd")
	f.Add(entry("r:k", nil), "r:k")
	f.Add([]byte(magic), "k")
	f.Add([]byte{}, "")
	f.Fuzz(func(t *testing.T, data []byte, key string) {
		if payload, ok := validate(data, key); ok {
			if !bytes.Equal(entry(key, payload), data) {
				t.Fatalf("accepted file is not the entry for its key and payload")
			}
		}
		if key == "" || len(key) > 1<<20 {
			return // Put refuses these keys
		}
		payload, ok := validate(entry(key, data), key)
		if !ok || !bytes.Equal(payload, data) {
			t.Fatalf("entry for key %q and a %d-byte payload does not validate", key, len(data))
		}
	})
}
