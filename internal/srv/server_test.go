package srv

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cash/internal/chaos"
	"cash/internal/serve"
)

// ---------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------

const srcQuick = `
int a[16];
void main() {
	int s = 0;
	for (int i = 0; i < 16; i++) a[i] = i * 5;
	for (int i = 0; i < 16; i++) s += a[i];
	printi(s);
}`

// srcCompare has enough loop reuse for cash's hoisted segment loads to
// amortize (tiny programs pay more for cash than for bcc).
const srcCompare = `
int a[16];
void main() {
	int s = 0;
	for (int r = 0; r < 20; r++) {
		for (int i = 0; i < 16; i++) a[i] = i * r;
		for (int i = 0; i < 16; i++) s += a[i];
	}
	printi(s);
}`

const srcOverflow = `
int buf[8];
void main() {
	for (int i = 0; i <= 8; i++) {
		buf[i] = i;
	}
}`

// slowSource returns a distinct long-running program per tag so each
// test controls its own (uncached) in-flight timing.
func slowSource(tag int) string {
	return fmt.Sprintf(`
void main() {
	int s = 0;
	for (int i = 0; i < 3000000; i++) s += i;
	printi(s + %d);
}`, tag)
}

// bigStep lifts the step limit so slow programs hit the deadline or the
// drain cancel, never the runaway fault.
var bigStep = WireOptions{StepLimit: 4_000_000_000}

func testEngine() *serve.Engine {
	return serve.NewEngine(serve.EngineConfig{Parallelism: 4})
}

// startServer runs a Server over a PipeListener and tears both down at
// test end, failing the test if Serve does not return.
func startServer(t *testing.T, cfg Config) (*Server, *PipeListener) {
	t.Helper()
	if cfg.Engine == nil {
		cfg.Engine = testEngine()
	}
	s := New(cfg)
	l := NewPipeListener()
	done := make(chan error, 1)
	go func() { done <- s.Serve(l) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("Serve returned %v, want nil after shutdown", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("Serve did not return after shutdown")
		}
	})
	return s, l
}

func dialClient(t *testing.T, l *PipeListener) *Client {
	t.Helper()
	nc, err := l.Dial()
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	c := NewClient(nc)
	t.Cleanup(func() { c.Close() })
	return c
}

// checkGoroutines asserts (as the last cleanup) that the test returned
// the goroutine count to its starting level — no leaked conns, workers,
// or waiters. Register before startServer so it runs after teardown.
func checkGoroutines(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(15 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= before+3 {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Errorf("goroutine leak: %d at start, %d after teardown\n%s",
			before, runtime.NumGoroutine(), buf[:n])
	})
}

func ctxT(t *testing.T, d time.Duration) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

// ---------------------------------------------------------------------
// Roundtrips
// ---------------------------------------------------------------------

func TestServerRoundtrips(t *testing.T) {
	checkGoroutines(t)
	_, l := startServer(t, Config{})
	c := dialClient(t, l)
	ctx := ctxT(t, 60*time.Second)

	t.Run("build", func(t *testing.T) {
		resp, err := c.Build(ctx, BuildRequest{Source: srcQuick, Mode: "cash"})
		if err != nil {
			t.Fatal(err)
		}
		if resp.CodeSize <= 0 || resp.Mode != "cash" {
			t.Fatalf("build response %+v", resp)
		}
	})
	t.Run("run", func(t *testing.T) {
		resp, err := c.Run(ctx, RunRequest{Source: srcQuick, Mode: "cash"})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Cycles == 0 || resp.Violation != "" {
			t.Fatalf("run response %+v", resp)
		}
		if len(resp.Output) != 1 || resp.Output[0] != 5*(15*16/2) {
			t.Fatalf("output %v, want [600]", resp.Output)
		}
	})
	t.Run("run_violation", func(t *testing.T) {
		resp, err := c.Run(ctx, RunRequest{Source: srcOverflow, Mode: "cash"})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(resp.Violation, "#GP") {
			t.Fatalf("violation %q must be a #GP", resp.Violation)
		}
	})
	t.Run("compare", func(t *testing.T) {
		resp, err := c.Compare(ctx, CompareRequest{Name: "wire-demo", Source: srcCompare})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Cash.Cycles <= resp.GCC.Cycles {
			t.Fatalf("cash %d cycles must cost more than gcc %d", resp.Cash.Cycles, resp.GCC.Cycles)
		}
		if resp.CashOverheadPct >= resp.BCCOverheadPct {
			t.Fatalf("cash overhead %.1f%% must beat bcc %.1f%%", resp.CashOverheadPct, resp.BCCOverheadPct)
		}
	})
	t.Run("bad_mode", func(t *testing.T) {
		_, err := c.Run(ctx, RunRequest{Source: srcQuick, Mode: "llvm"})
		var se *ServerError
		if !errors.As(err, &se) || se.Code != CodeBadRequest {
			t.Fatalf("bad mode: err=%v, want %s", err, CodeBadRequest)
		}
	})
	t.Run("bad_source", func(t *testing.T) {
		_, err := c.Run(ctx, RunRequest{Source: "void main( {", Mode: "cash"})
		var se *ServerError
		if !errors.As(err, &se) || se.Code != CodeBadRequest {
			t.Fatalf("bad source: err=%v, want %s", err, CodeBadRequest)
		}
	})
	t.Run("bad_table", func(t *testing.T) {
		_, err := c.Table(ctx, TableRequest{ID: "table99"})
		var se *ServerError
		if !errors.As(err, &se) || se.Code != CodeBadRequest {
			t.Fatalf("bad table: err=%v, want %s", err, CodeBadRequest)
		}
	})
	// The connection survives every typed rejection above.
	t.Run("conn_still_alive", func(t *testing.T) {
		if _, err := c.Run(ctx, RunRequest{Source: srcQuick, Mode: "cash"}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestServerBadVersionClosesConn(t *testing.T) {
	checkGoroutines(t)
	_, l := startServer(t, Config{})
	nc, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := writeFrame(nc, header{Version: 9, Type: TRun, ID: 1}, RunRequest{Source: srcQuick}); err != nil {
		t.Fatal(err)
	}
	h, body, err := readFrame(nc, DefaultMaxFrameBytes)
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != TError {
		t.Fatalf("response type %d, want TError", h.Type)
	}
	var e ErrorResponse
	if err := decode(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.Code != CodeBadVersion {
		t.Fatalf("code %q, want %q", e.Code, CodeBadVersion)
	}
	// The server hangs up after a version mismatch.
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, err := readFrame(nc, DefaultMaxFrameBytes); err == nil {
		t.Fatal("connection must be closed after a version mismatch")
	}
}

func TestServerUnknownTypeIsTyped(t *testing.T) {
	checkGoroutines(t)
	_, l := startServer(t, Config{})
	nc, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := writeFrame(nc, header{Version: ProtoVersion, Type: 99, ID: 7}, struct{}{}); err != nil {
		t.Fatal(err)
	}
	h, body, err := readFrame(nc, DefaultMaxFrameBytes)
	if err != nil {
		t.Fatal(err)
	}
	var e ErrorResponse
	if err := decode(body, &e); err != nil {
		t.Fatal(err)
	}
	if h.ID != 7 || h.Type != TError || e.Code != CodeBadRequest {
		t.Fatalf("unknown type: id=%d type=%d code=%q", h.ID, h.Type, e.Code)
	}
}

// ---------------------------------------------------------------------
// Overload, quota, deadline
// ---------------------------------------------------------------------

func TestServerShedsOverCapacity(t *testing.T) {
	checkGoroutines(t)
	started := make(chan struct{})
	release := make(chan struct{})
	var hooked atomic.Int32
	_, l := startServer(t, Config{
		Workers:    1,
		QueueDepth: -1, // nothing queues beyond the single worker's hands
		execHook: func(*task) {
			if hooked.Add(1) == 1 {
				close(started)
				<-release
			}
		},
	})
	c := dialClient(t, l)
	ctx := ctxT(t, 60*time.Second)

	occupied := make(chan error, 1)
	go func() {
		_, err := c.Run(ctx, RunRequest{Source: srcQuick, Mode: "cash"})
		occupied <- err
	}()
	<-started // the only worker is now blocked in execHook

	const burst = 10
	var wg sync.WaitGroup
	errs := make([]error, burst)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Run(ctx, RunRequest{Source: srcQuick, Mode: "cash"})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		var se *ServerError
		if !errors.As(err, &se) || se.Code != CodeOverCapacity {
			t.Fatalf("burst request %d: err=%v, want typed %s", i, err, CodeOverCapacity)
		}
		if se.RetryAfter <= 0 {
			t.Fatalf("burst request %d: shed without a retry-after hint", i)
		}
		if !IsShed(err) {
			t.Fatalf("burst request %d: IsShed must report true", i)
		}
	}
	close(release)
	if err := <-occupied; err != nil {
		t.Fatalf("occupying request failed: %v", err)
	}
	// Capacity is back: the next request goes through.
	if _, err := c.Run(ctx, RunRequest{Source: srcQuick, Mode: "cash"}); err != nil {
		t.Fatalf("post-burst request failed: %v", err)
	}
}

func TestServerPerClientQuota(t *testing.T) {
	checkGoroutines(t)
	// A controllable clock that stands still unless advanced. It must
	// track real time loosely (write deadlines are computed from it), so
	// it starts at time.Now and only ever moves forward.
	var clockMu sync.Mutex
	clock := time.Now()
	advance := func(d time.Duration) {
		clockMu.Lock()
		clock = clock.Add(d)
		clockMu.Unlock()
	}
	_, l := startServer(t, Config{
		QuotaRate:  2,
		QuotaBurst: 3,
		now: func() time.Time {
			clockMu.Lock()
			defer clockMu.Unlock()
			return clock
		},
	})
	c := dialClient(t, l)
	ctx := ctxT(t, 60*time.Second)
	for i := 0; i < 3; i++ {
		if _, err := c.Run(ctx, RunRequest{Source: srcQuick, Mode: "cash"}); err != nil {
			t.Fatalf("burst request %d: %v", i, err)
		}
	}
	_, err := c.Run(ctx, RunRequest{Source: srcQuick, Mode: "cash"})
	var se *ServerError
	if !errors.As(err, &se) || se.Code != CodeQuota {
		t.Fatalf("4th request: err=%v, want typed %s", err, CodeQuota)
	}
	if se.RetryAfter <= 0 {
		t.Fatal("quota response must carry a retry-after hint")
	}
	// Rate 2/s and an empty bucket under a frozen clock: the next token
	// is exactly 500ms away.
	if se.RetryAfter != 500*time.Millisecond {
		t.Fatalf("retry-after = %v, want exactly 500ms", se.RetryAfter)
	}
	// A fractional wait must round UP: 100µs after the miss the next
	// token is 499.9ms away, and a truncated 499ms hint would send the
	// client back while the bucket is still empty.
	advance(100 * time.Microsecond)
	_, err = c.Run(ctx, RunRequest{Source: srcQuick, Mode: "cash"})
	if !errors.As(err, &se) || se.Code != CodeQuota {
		t.Fatalf("fractional-wait request: err=%v, want typed %s", err, CodeQuota)
	}
	if se.RetryAfter != 500*time.Millisecond {
		t.Fatalf("fractional retry-after = %v, want 500ms (rounded up from 499.9ms)", se.RetryAfter)
	}
	// A different connection has its own bucket.
	c2 := dialClient(t, l)
	if _, err := c2.Run(ctx, RunRequest{Source: srcQuick, Mode: "cash"}); err != nil {
		t.Fatalf("fresh connection must have a fresh bucket: %v", err)
	}
	// Advancing the clock refills this connection's bucket.
	advance(time.Second)
	if _, err := c.Run(ctx, RunRequest{Source: srcQuick, Mode: "cash"}); err != nil {
		t.Fatalf("refilled request: %v", err)
	}
}

func TestServerDeadlinePropagatesToCancellation(t *testing.T) {
	checkGoroutines(t)
	_, l := startServer(t, Config{})
	nc, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// Raw frame with a wire deadline but no client-side one, so the
	// typed response is observable deterministically.
	req := RunRequest{Source: slowSource(1), Mode: "cash", Options: bigStep}
	if err := writeFrame(nc, header{Version: ProtoVersion, Type: TRun, ID: 1, DeadlineMillis: 40}, req); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(30 * time.Second))
	h, body, err := readFrame(nc, DefaultMaxFrameBytes)
	if err != nil {
		t.Fatal(err)
	}
	var e ErrorResponse
	if err := decode(body, &e); err != nil {
		t.Fatal(err)
	}
	if h.Type != TError || e.Code != CodeDeadline {
		t.Fatalf("deadline response: type=%d code=%q msg=%q, want %s", h.Type, e.Code, e.Message, CodeDeadline)
	}
	// The connection survives a deadline miss.
	if err := writeFrame(nc, header{Version: ProtoVersion, Type: TRun, ID: 2}, RunRequest{Source: srcQuick, Mode: "cash"}); err != nil {
		t.Fatal(err)
	}
	h, _, err = readFrame(nc, DefaultMaxFrameBytes)
	if err != nil {
		t.Fatal(err)
	}
	if h.ID != 2 || h.Type != TResult {
		t.Fatalf("follow-up after deadline: id=%d type=%d", h.ID, h.Type)
	}
}

// ---------------------------------------------------------------------
// Misbehaving clients
// ---------------------------------------------------------------------

func TestServerDisconnectsSlowClient(t *testing.T) {
	checkGoroutines(t)
	_, l := startServer(t, Config{WriteTimeout: 50 * time.Millisecond})
	nc, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := writeFrame(nc, header{Version: ProtoVersion, Type: TRun, ID: 1}, RunRequest{Source: srcQuick, Mode: "cash"}); err != nil {
		t.Fatal(err)
	}
	// Never drain the response: net.Pipe has no buffer, so the server's
	// frame write blocks until its 50ms deadline fires and the conn is
	// dropped. Sleep between single-byte probes so the response can
	// never trickle out fast enough to beat the write deadline.
	buf := make([]byte, 1)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		time.Sleep(100 * time.Millisecond)
		nc.SetReadDeadline(time.Now().Add(10 * time.Millisecond))
		if _, err := nc.Read(buf); err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue // still connected
			}
			return // closed by the server: the slow client was cut off
		}
	}
	t.Fatal("server never disconnected the unresponsive client")
}

func TestServerPanicIsolation(t *testing.T) {
	checkGoroutines(t)
	var calls atomic.Int32
	_, l := startServer(t, Config{
		Workers: 2,
		execHook: func(t *task) {
			if calls.Add(1) == 1 {
				panic("injected request panic")
			}
		},
	})
	c := dialClient(t, l)
	ctx := ctxT(t, 60*time.Second)
	_, err := c.Run(ctx, RunRequest{Source: srcQuick, Mode: "cash"})
	var se *ServerError
	if !errors.As(err, &se) || se.Code != CodeInternal {
		t.Fatalf("panicked request: err=%v, want typed %s", err, CodeInternal)
	}
	if !strings.Contains(se.Message, "injected request panic") {
		t.Fatalf("panic message lost: %q", se.Message)
	}
	// Worker and connection both survived.
	if _, err := c.Run(ctx, RunRequest{Source: srcQuick, Mode: "cash"}); err != nil {
		t.Fatalf("request after panic: %v", err)
	}
}

// ---------------------------------------------------------------------
// Drain and shutdown
// ---------------------------------------------------------------------

func TestServerGracefulDrain(t *testing.T) {
	checkGoroutines(t)
	// The in-flight request is held at the head of its execution until
	// the drain probe below has its answer. Otherwise it could finish
	// first, the drain would complete, and the probe frame — still
	// unread on cB — would be dropped with the connection. The hold,
	// not a slow program, keeps the request in flight.
	started := make(chan struct{})
	hold := make(chan struct{})
	unhold := sync.OnceFunc(func() { close(hold) })
	defer unhold()
	var holdNext atomic.Bool
	s, l := startServer(t, Config{
		execHook: func(t *task) {
			if holdNext.CompareAndSwap(true, false) {
				close(started)
				<-hold
			}
		},
	})
	cA := dialClient(t, l)
	cB := dialClient(t, l)
	ctx := ctxT(t, 60*time.Second)
	// A round trip on cB first: a connection the server has accepted but
	// not yet registered when the drain begins is closed unserved, so
	// the probe must travel on a connection known to be live. (gcc, so
	// the in-flight cash run below is not a run-cache hit.)
	if _, err := cB.Run(ctx, RunRequest{Source: srcQuick, Mode: "gcc"}); err != nil {
		t.Fatalf("warm-up on cB: %v", err)
	}
	holdNext.Store(true)

	inFlight := make(chan error, 1)
	var resp *RunResponse
	go func() {
		var err error
		resp, err = cA.Run(ctx, RunRequest{Source: srcQuick, Mode: "cash"})
		inFlight <- err
	}()
	<-started

	shutdownDone := make(chan error, 1)
	go func() {
		sctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(sctx)
	}()
	// Wait until the drain state is visible, then probe with a new
	// request on the pre-existing second connection.
	for !s.stopping() {
		time.Sleep(time.Millisecond)
	}
	_, err := cB.Run(ctx, RunRequest{Source: srcQuick, Mode: "cash"})
	var se *ServerError
	if !errors.As(err, &se) || se.Code != CodeShutdown {
		t.Fatalf("request during drain: err=%v, want typed %s", err, CodeShutdown)
	}
	unhold()

	// The in-flight request finishes and its response is flushed.
	if err := <-inFlight; err != nil {
		t.Fatalf("in-flight request failed during graceful drain: %v", err)
	}
	if resp == nil || resp.Cycles == 0 {
		t.Fatalf("in-flight response lost: %+v", resp)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("graceful Shutdown returned %v", err)
	}
	// New dials fail: the listener is gone.
	if _, err := l.Dial(); err == nil {
		t.Fatal("dial after shutdown must fail")
	}
}

func TestServerHardCancelOnDrainBudget(t *testing.T) {
	checkGoroutines(t)
	started := make(chan struct{})
	var once sync.Once
	s, l := startServer(t, Config{
		execHook: func(t *task) { once.Do(func() { close(started) }) },
	})
	c := dialClient(t, l)
	ctx := ctxT(t, 60*time.Second)

	inFlight := make(chan error, 1)
	go func() {
		// Big enough to outlive any plausible drain budget.
		_, err := c.Run(ctx, RunRequest{Source: slowSource(3), Mode: "cash",
			Options: WireOptions{StepLimit: 4_000_000_000}})
		inFlight <- err
	}()
	<-started

	sctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	begin := time.Now()
	err := s.Shutdown(sctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hard-canceled Shutdown returned %v, want deadline exceeded", err)
	}
	if took := time.Since(begin); took > 20*time.Second {
		t.Fatalf("hard cancel took %v; the drain budget was not enforced", took)
	}
	// The in-flight client observed the cancellation — either a typed
	// shutdown/cancel response or a severed connection, never a hang.
	select {
	case err := <-inFlight:
		var se *ServerError
		if errors.As(err, &se) {
			if se.Code != CodeShutdown && se.Code != CodeCanceled {
				t.Fatalf("in-flight request: typed %q, want shutdown/canceled", se.Code)
			}
		} else if err == nil {
			t.Fatal("in-flight request claims success after hard cancel")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight request hung through a hard cancel")
	}
}

func TestServerServeAfterCloseFails(t *testing.T) {
	s := New(Config{Engine: testEngine()})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Serve(NewPipeListener()); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve on closed server: %v, want ErrServerClosed", err)
	}
}

// ---------------------------------------------------------------------
// Wire chaos
// ---------------------------------------------------------------------

func TestServerChaosAcceptFail(t *testing.T) {
	checkGoroutines(t)
	before := mChaosAcceptFail.Value()
	_, l := startServer(t, Config{
		Chaos: chaos.NewPlan(chaos.Config{Seed: 3, Rate: 0.4, Sites: []chaos.Site{chaos.SiteAcceptFail}}),
	})
	ctx := ctxT(t, 120*time.Second)
	rep, err := RunLoad(ctx, LoadConfig{
		Dial: l.Dial, Clients: 16, PerClient: 1, Seed: 3, Retries: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != 16 {
		t.Fatalf("availability with accept chaos + retries: %s", rep.Format())
	}
	if mChaosAcceptFail.Value() == before {
		t.Fatal("accept chaos never fired at rate 0.4")
	}
}

func TestServerChaosConnDrop(t *testing.T) {
	checkGoroutines(t)
	before := mChaosConnDrop.Value()
	_, l := startServer(t, Config{
		Chaos: chaos.NewPlan(chaos.Config{Seed: 5, Rate: 0.35, Sites: []chaos.Site{chaos.SiteConnDrop}}),
	})
	ctx := ctxT(t, 120*time.Second)
	rep, err := RunLoad(ctx, LoadConfig{
		Dial: l.Dial, Clients: 16, PerClient: 2, Seed: 5, Retries: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != 32 {
		t.Fatalf("availability with conn-drop chaos + retries: %s", rep.Format())
	}
	if mChaosConnDrop.Value() == before {
		t.Fatal("conn-drop chaos never fired at rate 0.35")
	}
}

func TestServerChaosSlowRead(t *testing.T) {
	checkGoroutines(t)
	before := mChaosSlowRead.Value()
	_, l := startServer(t, Config{
		Chaos: chaos.NewPlan(chaos.Config{Seed: 7, Rate: 1, Sites: []chaos.Site{chaos.SiteSlowRead}}),
	})
	ctx := ctxT(t, 120*time.Second)
	rep, err := RunLoad(ctx, LoadConfig{
		Dial: l.Dial, Clients: 8, PerClient: 2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != 16 {
		t.Fatalf("slow-read chaos must only delay, never fail: %s", rep.Format())
	}
	if mChaosSlowRead.Value() == before {
		t.Fatal("slow-read chaos never fired at rate 1")
	}
}

// ---------------------------------------------------------------------
// The acceptance bar: 1000 concurrent clients, hermetically
// ---------------------------------------------------------------------

func TestServerThousandClients(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-client acceptance run skipped in -short mode")
	}
	checkGoroutines(t)
	eng := testEngine()
	// Sub-capacity: the queue holds the full offered load, so nothing
	// is shed and availability is 100% by construction.
	s, l := startServer(t, Config{Engine: eng, Workers: 16, QueueDepth: 4096})
	ctx := ctxT(t, 300*time.Second)

	run := func() string {
		rep, err := RunLoad(ctx, LoadConfig{
			Dial: l.Dial, Clients: 1000, PerClient: 2, Seed: 1, Rate: 50000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.OK != 2000 || rep.Availability() != 100 {
			t.Fatalf("sub-capacity run must be fully available:\n%s", rep.Format())
		}
		return rep.Format()
	}
	first := run()
	second := run()
	if first != second {
		t.Fatalf("seeded report not byte-stable across runs:\n--- first\n%s--- second\n%s", first, second)
	}
	// The server-wide merged histogram saw nothing yet (conns still
	// open); after shutdown it must cover all 4000 requests.
	sctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	if snap := s.LatencySnapshot(); snap.Count != 4000 {
		t.Fatalf("server-wide latency histogram count = %d, want 4000", snap.Count)
	}
}
