package srv

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"cash/internal/bench"
	"cash/internal/chaos"
	"cash/internal/core"
	"cash/internal/obs"
	"cash/internal/serve"
)

// Wire-layer metrics in the shared observability registry. None of
// these are linked into cashbench, so the committed metrics goldens are
// untouched.
var (
	mReqOK       = obs.Default().Counter("srv.requests.ok")
	mReqShed     = obs.Default().Counter("srv.requests.shed")
	mReqQuota    = obs.Default().Counter("srv.requests.quota")
	mReqDeadline = obs.Default().Counter("srv.requests.deadline")
	mReqCanceled = obs.Default().Counter("srv.requests.canceled")
	mReqBad      = obs.Default().Counter("srv.requests.bad")
	mReqInternal = obs.Default().Counter("srv.requests.internal")
	mReqPanics   = obs.Default().Counter("srv.requests.panics")

	mConnsOpened = obs.Default().Counter("srv.conns.opened")
	mConnsClosed = obs.Default().Counter("srv.conns.closed")

	mChaosAcceptFail = obs.Default().Counter("srv.chaos.accept_fail")
	mChaosConnDrop   = obs.Default().Counter("srv.chaos.conn_drop")
	mChaosSlowRead   = obs.Default().Counter("srv.chaos.slow_read")
)

// ErrServerClosed is returned by Serve after Shutdown or Close begins.
var ErrServerClosed = errors.New("srv: server closed")

// Defaults for zero Config fields.
const (
	DefaultWorkers      = 8
	DefaultQueueDepth   = 64
	DefaultWriteTimeout = 5 * time.Second
	DefaultRetryAfter   = 50 * time.Millisecond
)

// Config tunes a Server. The zero value (plus an Engine) is a working
// server with quotas disabled and chaos off.
type Config struct {
	// Engine serves the requests. Required: New panics without one.
	// The Server never closes the engine — lifecycles compose from the
	// outside (shut the server down, then close the engine).
	Engine *serve.Engine
	// Workers bounds the worker pool executing requests; queued work
	// beyond it waits in the request queue. 0 means DefaultWorkers.
	Workers int
	// QueueDepth bounds the request queue. A request arriving with the
	// queue full is shed immediately with a typed over-capacity
	// response. 0 means DefaultQueueDepth; negative means depth 0 (every
	// request beyond the workers' hands is shed).
	QueueDepth int
	// QuotaRate is the per-connection token-bucket refill rate in
	// requests per second; <= 0 disables quotas.
	QuotaRate float64
	// QuotaBurst is the bucket capacity when quotas are enabled (min 1).
	QuotaBurst int
	// WriteTimeout bounds one response write; a client that cannot keep
	// up with its responses is disconnected rather than allowed to wedge
	// a worker or the writer. 0 means DefaultWriteTimeout.
	WriteTimeout time.Duration
	// RetryAfter is the hint attached to over-capacity responses. 0
	// means DefaultRetryAfter.
	RetryAfter time.Duration
	// MaxFrameBytes bounds one request frame. 0 means
	// DefaultMaxFrameBytes.
	MaxFrameBytes int
	// Chaos, when enabled, injects wire-level faults (accept failures,
	// mid-request connection drops, delayed reads) deterministically
	// from the plan's seed.
	Chaos *chaos.Plan

	// now overrides the clock (tests; quotas and retry hints).
	now func() time.Time
	// execHook runs at the head of every request execution (tests;
	// panic isolation).
	execHook func(*task)
}

// Server states.
const (
	stateRunning = iota
	stateDraining
	stateClosed
)

// task is one queued request: the connection to answer on, the parsed
// header, and the undecoded body.
type task struct {
	c    *srvConn
	h    header
	body []byte
}

// Server is the TCP front end. Create with New, attach listeners with
// Serve (one goroutine each), stop with Shutdown (graceful) or Close
// (immediate).
type Server struct {
	cfg Config
	eng *serve.Engine

	queue       chan *task
	baseCtx     context.Context
	baseCancel  context.CancelFunc
	stopWorkers chan struct{}
	stopOnce    sync.Once
	startOnce   sync.Once

	mu        sync.Mutex
	state     int
	listeners map[net.Listener]struct{}
	conns     map[*srvConn]struct{}
	acceptSeq int
	connSeq   int

	inflight sync.WaitGroup // accepted-into-queue requests
	workerWG sync.WaitGroup
	connWG   sync.WaitGroup

	histMu sync.Mutex
	hist   *obs.Histogram // server-wide simulated-latency view
}

// New builds a Server from cfg, which must name an Engine. Workers start
// on the first Serve call.
func New(cfg Config) *Server {
	eng := cfg.Engine
	if eng == nil {
		panic("srv: New needs a Config.Engine")
	}
	depth := cfg.QueueDepth
	if depth == 0 {
		depth = DefaultQueueDepth
	}
	if depth < 0 {
		depth = 0
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		cfg:         cfg,
		eng:         eng,
		queue:       make(chan *task, depth),
		baseCtx:     ctx,
		baseCancel:  cancel,
		stopWorkers: make(chan struct{}),
		listeners:   make(map[net.Listener]struct{}),
		conns:       make(map[*srvConn]struct{}),
		hist:        obs.NewCycleHistogram(),
	}
}

func (s *Server) now() time.Time {
	if s.cfg.now != nil {
		return s.cfg.now()
	}
	return time.Now()
}

func (s *Server) workers() int {
	if s.cfg.Workers > 0 {
		return s.cfg.Workers
	}
	return DefaultWorkers
}

func (s *Server) writeTimeout() time.Duration {
	if s.cfg.WriteTimeout > 0 {
		return s.cfg.WriteTimeout
	}
	return DefaultWriteTimeout
}

// ceilMillis converts a retry hint to whole milliseconds, rounding up.
// Milliseconds() truncates, so a 2.7ms wait would become a 2ms hint and
// a well-behaved client would come back while the quota is still
// exhausted, burn the retry, and be told to wait again. Never below 1ms:
// a zero hint reads as "retry immediately".
func ceilMillis(d time.Duration) int64 {
	ms := d.Milliseconds()
	if d > time.Duration(ms)*time.Millisecond {
		ms++
	}
	if ms < 1 {
		ms = 1
	}
	return ms
}

func (s *Server) retryAfterMillis() int64 {
	d := s.cfg.RetryAfter
	if d <= 0 {
		d = DefaultRetryAfter
	}
	return ceilMillis(d)
}

func (s *Server) maxFrame() int {
	if s.cfg.MaxFrameBytes > 0 {
		return s.cfg.MaxFrameBytes
	}
	return DefaultMaxFrameBytes
}

// LatencySnapshot returns the server-wide simulated-latency histogram:
// every connection's per-request run cycles, merged on connection
// close.
func (s *Server) LatencySnapshot() obs.HistogramSnapshot {
	s.histMu.Lock()
	defer s.histMu.Unlock()
	return s.hist.Snapshot()
}

// Serve accepts connections on l until the listener fails or the server
// shuts down. It returns nil after Shutdown/Close, ErrServerClosed when
// called on an already-stopped server, and the accept error otherwise.
// Injected accept faults (chaos.SiteAcceptFail) and temporary network
// errors are survived with a short backoff, not returned.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.state != stateRunning {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	s.startOnce.Do(func() {
		for i := 0; i < s.workers(); i++ {
			s.workerWG.Add(1)
			go s.worker()
		}
	})
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
	}()
	var backoff time.Duration
	for {
		nc, err := l.Accept()
		if err != nil {
			if s.stopping() {
				return nil
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				if backoff < 5*time.Millisecond {
					backoff += time.Millisecond
				}
				time.Sleep(backoff)
				continue
			}
			return err
		}
		backoff = 0
		s.mu.Lock()
		acceptIdx := s.acceptSeq
		s.acceptSeq++
		connID := s.connSeq
		s.connSeq++
		s.mu.Unlock()
		// Chaos: an injected accept failure severs the connection before
		// it is ever served, as if accept(2) itself had failed.
		if s.cfg.Chaos.Draw("srv/accept", acceptIdx, 0, []chaos.Site{chaos.SiteAcceptFail}).Is(chaos.SiteAcceptFail) {
			mChaosAcceptFail.Inc()
			nc.Close()
			continue
		}
		s.connWG.Add(1)
		go s.serveConn(nc, connID)
	}
}

// stopping reports whether Shutdown/Close has begun.
func (s *Server) stopping() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state != stateRunning
}

// tryEnqueue submits a task to the worker queue without blocking: the
// overload answer is an immediate typed shed, never an unbounded queue.
// It returns a non-empty error code when the request was not accepted.
func (s *Server) tryEnqueue(t *task) (code string, retryMillis int64) {
	s.mu.Lock()
	if s.state != stateRunning {
		s.mu.Unlock()
		return CodeShutdown, 0
	}
	s.inflight.Add(1)
	select {
	case s.queue <- t:
		s.mu.Unlock()
		return "", 0
	default:
		s.inflight.Done()
		s.mu.Unlock()
		mReqShed.Inc()
		return CodeOverCapacity, s.retryAfterMillis()
	}
}

func (s *Server) worker() {
	defer s.workerWG.Done()
	for {
		select {
		case t := <-s.queue:
			s.handle(t)
		case <-s.stopWorkers:
			return
		}
	}
}

// handle executes one request. Panics are isolated to the request: the
// worker survives, the client gets a typed internal error, and the
// connection keeps serving.
func (s *Server) handle(t *task) {
	defer s.inflight.Done()
	defer func() {
		if r := recover(); r != nil {
			mReqPanics.Inc()
			t.c.send(t.h.ID, TError, ErrorResponse{Code: CodeInternal, Message: fmt.Sprintf("panic: %v", r)})
		}
	}()
	if s.cfg.execHook != nil {
		s.cfg.execHook(t)
	}
	ctx := s.baseCtx
	if t.h.DeadlineMillis > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(t.h.DeadlineMillis)*time.Millisecond)
		defer cancel()
	}
	resp, err := s.execute(ctx, t)
	if err != nil {
		t.c.send(t.h.ID, TError, s.classify(err))
		return
	}
	mReqOK.Inc()
	t.c.send(t.h.ID, TResult, resp)
}

// badRequest marks errors caused by the request content (undecodable
// body, unknown mode, compile failure) as the client's fault.
type badRequest struct{ err error }

func (e badRequest) Error() string { return e.err.Error() }
func (e badRequest) Unwrap() error { return e.err }

// classify maps an execution error onto a typed wire error.
func (s *Server) classify(err error) ErrorResponse {
	var br badRequest
	switch {
	case errors.As(err, &br):
		mReqBad.Inc()
		return ErrorResponse{Code: CodeBadRequest, Message: err.Error()}
	case errors.Is(err, context.DeadlineExceeded):
		mReqDeadline.Inc()
		return ErrorResponse{Code: CodeDeadline, Message: err.Error()}
	case errors.Is(err, serve.ErrEngineClosed):
		return ErrorResponse{Code: CodeShutdown, Message: err.Error()}
	case errors.Is(err, context.Canceled):
		mReqCanceled.Inc()
		if s.stopping() {
			return ErrorResponse{Code: CodeShutdown, Message: "canceled by server shutdown"}
		}
		return ErrorResponse{Code: CodeCanceled, Message: err.Error()}
	default:
		mReqInternal.Inc()
		return ErrorResponse{Code: CodeInternal, Message: err.Error()}
	}
}

// execute decodes and serves one request through the engine.
func (s *Server) execute(ctx context.Context, t *task) (any, error) {
	switch t.h.Type {
	case TBuild:
		var req BuildRequest
		if err := decode(t.body, &req); err != nil {
			return nil, err
		}
		mode, err := ParseMode(req.Mode)
		if err != nil {
			return nil, badRequest{err}
		}
		art, err := s.eng.BuildContext(ctx, req.Source, mode, req.Options.Options())
		if err != nil {
			return nil, buildErr(ctx, err)
		}
		return BuildResponse{Mode: mode.String(), CodeSize: art.CodeSize(), Stats: art.StaticStats()}, nil

	case TRun:
		var req RunRequest
		if err := decode(t.body, &req); err != nil {
			return nil, err
		}
		mode, err := ParseMode(req.Mode)
		if err != nil {
			return nil, badRequest{err}
		}
		art, err := s.eng.BuildContext(ctx, req.Source, mode, req.Options.Options())
		if err != nil {
			return nil, buildErr(ctx, err)
		}
		res, err := s.eng.RunContext(ctx, art)
		if err != nil {
			return nil, err
		}
		resp := RunResponse{
			Cycles:   res.Cycles,
			ExitCode: res.ExitCode,
			Output:   res.Output,
			HeapSpan: res.HeapSpan,
		}
		if res.Violation != nil {
			resp.Violation = res.Violation.Error()
		}
		t.c.observe(res.Cycles)
		return resp, nil

	case TCompare:
		var req CompareRequest
		if err := decode(t.body, &req); err != nil {
			return nil, err
		}
		cmp, err := s.eng.CompareStrategiesContext(ctx, req.Name, req.Source, core.CompareConfig{Options: req.Options.Options()})
		if err != nil {
			return nil, buildErr(ctx, err)
		}
		return CompareResponse{
			Name:            cmp.Name,
			GCC:             CompareModeNumbers{Cycles: cmp.GCC.Cycles, CodeSize: cmp.GCC.CodeSize},
			BCC:             CompareModeNumbers{Cycles: cmp.BCC.Cycles, CodeSize: cmp.BCC.CodeSize},
			Cash:            CompareModeNumbers{Cycles: cmp.Cash.Cycles, CodeSize: cmp.Cash.CodeSize},
			CashOverheadPct: cmp.CashOverheadPct(),
			BCCOverheadPct:  cmp.BCCOverheadPct(),
		}, nil

	case TTable:
		var req TableRequest
		if err := decode(t.body, &req); err != nil {
			return nil, err
		}
		tab, err := bench.Suite{Engine: s.eng}.Table(ctx, req.ID, req.Requests)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, badRequest{err}
		}
		return TableResponse{ID: req.ID, Text: tab.Format()}, nil
	}
	return nil, badRequest{fmt.Errorf("unknown request type %d", t.h.Type)}
}

// decode unmarshals a request body, typing failures as the client's.
func decode(raw []byte, into any) error {
	if err := json.Unmarshal(raw, into); err != nil {
		return badRequest{fmt.Errorf("undecodable request body: %w", err)}
	}
	return nil
}

// buildErr types a build failure: compile errors are the client's
// fault, but a canceled or closed engine is not.
func buildErr(ctx context.Context, err error) error {
	if ctx.Err() != nil {
		return ctx.Err()
	}
	if errors.Is(err, serve.ErrEngineClosed) {
		return err
	}
	return badRequest{err}
}

// mergeConnHistogram folds a closing connection's latency view into the
// server-wide one (obs.Histogram.Merge keeps quantiles equivalent to a
// single combined histogram).
func (s *Server) mergeConnHistogram(h *obs.Histogram) {
	s.histMu.Lock()
	defer s.histMu.Unlock()
	// Same bounds by construction; Merge only errors on bound mismatch
	// or self-merge.
	_ = s.hist.Merge(h)
}

// Shutdown drains the server gracefully: stop accepting, answer new
// requests with a typed shutting-down response, let in-flight requests
// finish, flush their responses, then tear down connections and
// workers. If ctx expires first, the drain turns hard: the base context
// is canceled — in-flight simulated runs stop at the next basic-block
// boundary via the vm's cancellation path — connections are severed,
// and Shutdown returns ctx.Err(). Safe to call multiple times and
// concurrently; every call waits for the teardown it observed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.state == stateRunning {
		s.state = stateDraining
	}
	for l := range s.listeners {
		l.Close()
	}
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(drained)
	}()
	var hardErr error
	select {
	case <-drained:
	case <-ctx.Done():
		hardErr = ctx.Err()
		s.baseCancel()
		s.closeConns(true)
		<-drained
	}
	s.stopOnce.Do(func() { close(s.stopWorkers) })
	s.workerWG.Wait()
	s.closeConns(false)
	s.connWG.Wait()
	s.baseCancel()
	s.mu.Lock()
	s.state = stateClosed
	s.mu.Unlock()
	return hardErr
}

// Close stops the server immediately: in-flight work is canceled, not
// awaited. It always returns nil.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Shutdown(ctx)
	return nil
}

// closeConns signals every live connection to shut down. force severs
// the sockets immediately (hard cancel); otherwise writers flush their
// queued responses first.
func (s *Server) closeConns(force bool) {
	s.mu.Lock()
	conns := make([]*srvConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.close(force)
	}
}
