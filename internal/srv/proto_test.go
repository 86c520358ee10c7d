package srv

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestFrameRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	h := header{Version: ProtoVersion, Type: TRun, ID: 777, DeadlineMillis: 1500}
	body := RunRequest{Source: "void main() {}", Mode: "cash",
		Options: WireOptions{SegRegs: 4, Passes: []string{"rce", "hoist"}, ElectricFence: true}}
	if err := writeFrame(&buf, h, body); err != nil {
		t.Fatal(err)
	}
	got, raw, err := readFrame(&buf, DefaultMaxFrameBytes)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("header roundtrip: %+v != %+v", got, h)
	}
	var back RunRequest
	if err := decode(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Source != body.Source || back.Mode != body.Mode || !back.Options.ElectricFence ||
		back.Options.SegRegs != 4 || len(back.Options.Passes) != 2 {
		t.Fatalf("body roundtrip: %+v", back)
	}
}

// TestWireIgnoresTier2Field pins that a body from a client that still
// sends the retired "tier2" option decodes, and that the field selects
// nothing: the server's default execution engine applies.
func TestWireIgnoresTier2Field(t *testing.T) {
	var req RunRequest
	if err := decode([]byte(`{"source":"void main() {}","options":{"seg_regs":4,"tier2":true}}`), &req); err != nil {
		t.Fatal(err)
	}
	if got, want := req.Options.Options(), (WireOptions{SegRegs: 4}).Options(); !reflect.DeepEqual(got, want) {
		t.Fatalf("options = %+v, want %+v", got, want)
	}
}

func TestFrameOversizeRejected(t *testing.T) {
	var buf bytes.Buffer
	big := RunRequest{Source: strings.Repeat("x", 4096)}
	if err := writeFrame(&buf, header{Version: ProtoVersion, Type: TRun, ID: 1}, big); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readFrame(&buf, 256); err == nil {
		t.Fatal("oversized frame must be rejected")
	}
}

func TestFrameShorterThanHeaderRejected(t *testing.T) {
	r := bytes.NewReader([]byte{0, 0, 0, 2, 1, 1})
	if _, _, err := readFrame(r, DefaultMaxFrameBytes); err == nil {
		t.Fatal("undersized frame must be rejected")
	}
}

func TestBucketQuota(t *testing.T) {
	b := newBucket(2, 3) // 2 tokens/s, burst 3
	now := ref()
	for i := 0; i < 3; i++ {
		if ok, _ := b.take(now); !ok {
			t.Fatalf("burst token %d denied", i)
		}
	}
	ok, retry := b.take(now)
	if ok {
		t.Fatal("4th immediate request must be over quota")
	}
	if retry <= 0 || retry > time.Second {
		t.Fatalf("retry hint %v outside (0, 1s] at 2 tokens/s", retry)
	}
	// Half a second refills one token at 2/s.
	if ok, _ := b.take(now.Add(600 * time.Millisecond)); !ok {
		t.Fatal("token did not refill")
	}
	if b != nil {
		// nil bucket admits everything
		var nb *bucket
		if ok, _ := nb.take(now); !ok {
			t.Fatal("nil bucket must admit")
		}
	}
}

func ref() time.Time { return time.Unix(1_000_000, 0) }
