package srv

import (
	"bytes"
	"testing"
)

// FuzzReadFrame feeds arbitrary bytes and frame limits to readFrame, the
// first code every byte a client or server receives reaches. It must
// never panic and never size a payload past the limit, whatever length
// the prefix declares; and a frame it accepts must be exactly the bytes
// frame writes for that header and body. The corpus is seeded with real
// request and response frames.
func FuzzReadFrame(f *testing.F) {
	opts := WireOptions{SegRegs: 4, Passes: []string{"rce", "hoist"}, ElectricFence: true}
	frames := []struct {
		h    header
		body any
	}{
		{header{Version: ProtoVersion, Type: TBuild, ID: 1}, BuildRequest{Source: srcQuick, Mode: "gcc"}},
		{header{Version: ProtoVersion, Type: TRun, ID: 2, DeadlineMillis: 1500}, RunRequest{Source: srcQuick, Mode: "cash", Options: opts}},
		{header{Version: ProtoVersion, Type: TCompare, ID: 3}, CompareRequest{Name: "quick", Source: srcQuick}},
		{header{Version: ProtoVersion, Type: TTable, ID: 4}, TableRequest{ID: "table1", Requests: 200}},
		{header{Version: ProtoVersion, Type: TResult, ID: 2}, RunResponse{Cycles: 1234, Output: []int32{45}, HeapSpan: 4096}},
		{header{Version: ProtoVersion, Type: TResult, ID: 1}, BuildResponse{Mode: "gcc", CodeSize: 96, Stats: map[string]uint64{"instrs": 24}}},
		{header{Version: ProtoVersion, Type: TError, ID: 5}, ErrorResponse{Code: CodeOverCapacity, Message: "worker queue full", RetryAfterMillis: 50}},
	}
	for _, fr := range frames {
		var buf bytes.Buffer
		if err := writeFrame(&buf, fr.h, fr.body); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), DefaultMaxFrameBytes)
		f.Add(buf.Bytes(), headerLen+4)
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, DefaultMaxFrameBytes)
	f.Add([]byte{0, 0, 0, 3, 1, 2, 3}, DefaultMaxFrameBytes)
	f.Fuzz(func(t *testing.T, data []byte, max int) {
		// readFrame may allocate up to max before reading the payload;
		// keep that within what the fuzzer can afford per input.
		max %= 2 * DefaultMaxFrameBytes
		r := bytes.NewReader(data)
		h, body, err := readFrame(r, max)
		if err != nil {
			return
		}
		if headerLen+cap(body) > max {
			t.Fatalf("accepted a %d-byte payload under a %d-byte limit", headerLen+cap(body), max)
		}
		read := data[:len(data)-r.Len()]
		if again := frame(h, body); !bytes.Equal(again, read) {
			t.Fatalf("re-encoding differs:\n in %x\nout %x", read, again)
		}
	})
}
