package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestTraceNilSafety(t *testing.T) {
	var tr *Trace
	tr.Emit(EvFault, 1, 2, "ignored")
	if tr.Enabled() {
		t.Fatal("nil trace must report disabled")
	}
	if tr.Events() != nil || tr.Len() != 0 || tr.Dropped() != 0 || tr.Drain() != nil {
		t.Fatal("nil trace accessors must be empty")
	}
	if !strings.Contains(tr.Format(), "0 recorded") {
		t.Fatal("nil trace must format as empty")
	}
}

func TestTraceOrderAndSeq(t *testing.T) {
	tr := NewTrace(8)
	tr.Emit(EvSegRegLoad, 0, 0x1f, "ES")
	tr.Emit(EvLDTAlloc, 3, 0x1000, "call-gate")
	tr.Emit(EvLDTFree, 3, 0, "")
	events := tr.Events()
	if len(events) != 3 {
		t.Fatalf("len = %d, want 3", len(events))
	}
	for i, e := range events {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
	}
	if events[1].Kind != EvLDTAlloc || events[1].Note != "call-gate" {
		t.Fatalf("event 1 = %+v", events[1])
	}
}

func TestTraceRingOverwrite(t *testing.T) {
	tr := NewTrace(4)
	for i := 0; i < 10; i++ {
		tr.Emit(EvLDTFree, uint64(i), 0, "")
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("dropped = %d, want 6", got)
	}
	events := tr.Events()
	if len(events) != 4 {
		t.Fatalf("len = %d, want 4", len(events))
	}
	// Oldest-first and the newest 4 survive.
	for i, e := range events {
		if e.Arg0 != uint64(6+i) {
			t.Fatalf("event %d Arg0 = %d, want %d", i, e.Arg0, 6+i)
		}
	}
}

func TestTraceDrain(t *testing.T) {
	tr := NewTrace(8)
	tr.Emit(EvLDTAlloc, 1, 0, "cache-hit")
	got := tr.Drain()
	if len(got) != 1 || tr.Len() != 0 {
		t.Fatalf("drain returned %d events, left %d", len(got), tr.Len())
	}
	tr.Emit(EvLDTFree, 2, 0, "")
	if e := tr.Events()[0]; e.Seq != 2 {
		t.Fatalf("sequence must continue across Drain, got %d", e.Seq)
	}
}

func TestTraceFormatAndJSON(t *testing.T) {
	tr := NewTrace(8)
	tr.Emit(EvLDTAlloc, 42, 0, "exhausted")
	text := tr.Format()
	if !strings.Contains(text, "ldt-alloc") || !strings.Contains(text, "exhausted") {
		t.Fatalf("Format missing content:\n%s", text)
	}
	data, err := tr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Dropped uint64 `json:"dropped"`
		Events  []struct {
			Seq  uint64 `json:"seq"`
			Note string `json:"note"`
		} `json:"events"`
	}
	if err := json.Unmarshal(data, &parsed); err != nil {
		t.Fatal(err)
	}
	if len(parsed.Events) != 1 || parsed.Events[0].Note != "exhausted" {
		t.Fatalf("JSON = %s", data)
	}
}

func TestTraceConcurrentEmit(t *testing.T) {
	tr := NewTrace(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Emit(EvSegRegLoad, uint64(i), 0, "")
			}
		}()
	}
	wg.Wait()
	if got := tr.Len() + int(tr.Dropped()); got != 800 {
		t.Fatalf("retained+dropped = %d, want 800", got)
	}
}
