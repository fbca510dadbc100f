// Package server implements decorrd: a network front end serving the
// decorrelation engine over the wire protocol (package wire).
//
// The design is one goroutine per connection running a strict
// request/reply loop — the protocol never pushes unsolicited frames, so
// a session needs no writer goroutine and no reply multiplexing. All
// cross-session coordination happens inside the shared *engine.Engine
// (plan cache, registry, storage), which is already built for concurrent
// clients; the server's own shared state is just the session set.
//
// Memory: a session holds at most one engine batch per open cursor
// (streamed via engine.Stream, which holds no full result), so the
// server-side cost of a million-row result is one batch plus the frame
// being written — this is the property the server-smoke benchmark pins.
//
// Cancellation is out-of-band: a Cancel frame on any connection kills
// the registry query ID it names, which trips the victim's governor at
// its next morsel claim. A disconnect cancels the session context, which
// kills every query the session still has streaming.
//
// Lifecycle: Shutdown drains — it stops accepting, refuses new work
// with a retryable CodeUnavailable, lets in-flight queries and open
// cursors finish, and falls back to the hard Close at its context
// deadline. Peer protection (handshake, per-request read, and reply
// write deadlines) frees the slot of a silent or dead peer, and
// admission sheds load past the active-query/heap watermarks with a
// retryable CodeOverloaded carrying a backoff hint. Every client-visible
// outcome under faults, overload, and shutdown is a correct result or a
// clean typed error — the serving-layer mirror of the engine's
// fault-injection contract (see docs/robustness.md).
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"decorr/internal/engine"
	"decorr/internal/trace"
	"decorr/internal/wire"
)

// Config configures a Server. Engine is required; everything else has a
// serving default.
type Config struct {
	// Engine executes the queries. Enable its registry (or mount the
	// system catalog) before serving if remote Cancel should work; the
	// server functions without one, reporting Cancel targets as not found.
	Engine *engine.Engine
	// Strategy is the default decorrelation strategy for sessions that do
	// not pick one in their handshake. The zero value is NI; servers
	// usually want Auto.
	Strategy engine.Strategy
	// MaxSessions caps concurrent sessions; further handshakes are
	// refused with a retryable CodeUnavailable. Zero means
	// DefaultMaxSessions.
	MaxSessions int
	// FetchRows is the reply-batch row cap used when a Fetch names none.
	// Zero means DefaultFetchRows.
	FetchRows int
	// Name is the server name announced in the handshake.
	Name string

	// HandshakeTimeout bounds the whole handshake: a peer that connects
	// and never completes a Hello is dropped when it expires, freeing
	// the goroutine and connection it would otherwise pin forever. Zero
	// means DefaultHandshakeTimeout; negative disables the bound.
	HandshakeTimeout time.Duration
	// ReadTimeout bounds the idle wait for the next request frame on an
	// established session; a session that exceeds it is dropped. Zero
	// means no bound (connection pools legitimately hold idle
	// sessions); set it when serving untrusted peers.
	ReadTimeout time.Duration
	// WriteTimeout bounds each reply frame write, so a peer that stops
	// reading cannot pin a session goroutine (and the engine batch its
	// cursor buffers) once the kernel buffers fill. Zero means
	// DefaultWriteTimeout; negative disables the bound.
	WriteTimeout time.Duration

	// MaxActiveQueries sheds new sessions and new queries with a
	// retryable CodeOverloaded while this many queries are already
	// running (per the engine registry). Zero means no cap. Requires a
	// registry; without one the check is skipped.
	MaxActiveQueries int
	// MaxHeapBytes sheds the same way while the process heap exceeds
	// this many bytes (sampled, at most every 100ms). Zero means no cap.
	MaxHeapBytes uint64
	// RetryAfter is the backoff hint carried by shed and drain
	// rejections. Zero means DefaultRetryAfter.
	RetryAfter time.Duration
}

const (
	// DefaultMaxSessions bounds concurrent sessions by default.
	DefaultMaxSessions = 64
	// DefaultFetchRows is the default reply-batch row cap. It matches the
	// engine's streaming batch so one Fetch usually maps to one engine
	// batch.
	DefaultFetchRows = 1024
	// DefaultHandshakeTimeout bounds the pre-Hello window by default.
	DefaultHandshakeTimeout = 10 * time.Second
	// DefaultWriteTimeout bounds each reply frame write by default.
	DefaultWriteTimeout = time.Minute
	// DefaultRetryAfter is the default backoff hint on retryable
	// rejections.
	DefaultRetryAfter = 250 * time.Millisecond

	// heapSampleEvery is how stale the cached heap reading may go:
	// runtime.ReadMemStats stops the world, so admission must not pay
	// for it per request.
	heapSampleEvery = 100 * time.Millisecond

	// acceptBackoffMin/Max bound the retry backoff for transient Accept
	// errors (EMFILE, ECONNABORTED, …).
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = time.Second
)

// Server serves the wire protocol on a listener.
type Server struct {
	cfg Config

	mu       sync.Mutex
	ln       net.Listener
	sessions map[*session]struct{}
	draining bool
	closed   bool
	wg       sync.WaitGroup

	cursors atomic.Int64 // open cursors across all sessions, for Status

	heapAt    atomic.Int64  // unix nanos of the last heap sample
	heapBytes atomic.Uint64 // cached HeapAlloc

	// Robustness counters, published in trace.Metrics (and therefore in
	// sys.metrics and the Prometheus endpoint). Created eagerly so they
	// are visible at zero.
	cRefused       *trace.Counter // handshakes refused (capacity, drain, overload)
	cSheds         *trace.Counter // overload sheds (admission + per-query)
	cDrains        *trace.Counter // graceful drains begun
	cDeadlineDrops *trace.Counter // peers dropped by handshake/read/write deadlines
	cAcceptRetries *trace.Counter // transient Accept errors retried
}

// New builds a Server. It panics on a nil engine — that is a programming
// error, not a runtime condition.
func New(cfg Config) *Server {
	if cfg.Engine == nil {
		panic("server: Config.Engine is required")
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	if cfg.FetchRows <= 0 {
		cfg.FetchRows = DefaultFetchRows
	}
	if cfg.Name == "" {
		cfg.Name = "decorrd"
	}
	switch {
	case cfg.HandshakeTimeout == 0:
		cfg.HandshakeTimeout = DefaultHandshakeTimeout
	case cfg.HandshakeTimeout < 0:
		cfg.HandshakeTimeout = 0
	}
	switch {
	case cfg.WriteTimeout == 0:
		cfg.WriteTimeout = DefaultWriteTimeout
	case cfg.WriteTimeout < 0:
		cfg.WriteTimeout = 0
	}
	if cfg.ReadTimeout < 0 {
		cfg.ReadTimeout = 0
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	return &Server{
		cfg:            cfg,
		sessions:       make(map[*session]struct{}),
		cRefused:       trace.Metrics.Counter("server.sessions_refused"),
		cSheds:         trace.Metrics.Counter("server.sheds"),
		cDrains:        trace.Metrics.Counter("server.drains"),
		cDeadlineDrops: trace.Metrics.Counter("server.deadline_drops"),
		cAcceptRetries: trace.Metrics.Counter("server.accept_retries"),
	}
}

// ListenAndServe listens on addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Close or Shutdown. Transient
// accept errors (EMFILE, ECONNABORTED, a timeout) are retried with
// capped exponential backoff — one bad accept must not kill the server.
// Serve returns nil after Close/Shutdown and the accept error on
// persistent (non-transient) failure.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: already closed")
	}
	s.ln = ln
	s.mu.Unlock()
	var backoff time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			stopped := s.closed || s.draining
			s.mu.Unlock()
			if stopped {
				return nil
			}
			if !transientAcceptError(err) {
				return err
			}
			if backoff == 0 {
				backoff = acceptBackoffMin
			} else if backoff *= 2; backoff > acceptBackoffMax {
				backoff = acceptBackoffMax
			}
			s.cAcceptRetries.Inc()
			time.Sleep(backoff)
			continue
		}
		backoff = 0
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// transientAcceptError classifies listener errors worth retrying: load-
// or peer-induced conditions that clear on their own. A closed listener
// is never transient (Serve checks the close flags first and returns
// the error only for an unexpected close).
func transientAcceptError(err error) bool {
	if errors.Is(err, net.ErrClosed) {
		return false
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	return errors.Is(err, syscall.ECONNABORTED) ||
		errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EMFILE) ||
		errors.Is(err, syscall.ENFILE) ||
		errors.Is(err, syscall.EINTR)
}

// Addr reports the listening address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops the listener, disconnects every session (canceling their
// in-flight queries), and waits for the connection goroutines to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	open := make([]*session, 0, len(s.sessions))
	for sess := range s.sessions {
		open = append(open, sess)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, sess := range open {
		sess.disconnect()
	}
	s.wg.Wait()
	return nil
}

// Shutdown drains the server gracefully: it stops accepting, refuses
// new sessions and new queries with a retryable CodeUnavailable, lets
// in-flight queries and open cursors run to completion, and returns nil
// once every session has ended. Sessions with no open cursor are closed
// immediately; sessions mid-stream close as soon as their last cursor
// drains. If ctx expires first, Shutdown falls back to the hard Close
// (canceling whatever is still running) and returns ctx.Err().
//
// Shutdown is idempotent and safe to race with Close, admissions, and
// in-flight streams; a second concurrent Shutdown waits for the same
// drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	first := !s.draining
	s.draining = true
	ln := s.ln
	open := make([]*session, 0, len(s.sessions))
	for sess := range s.sessions {
		open = append(open, sess)
	}
	s.mu.Unlock()
	if first {
		s.cDrains.Inc()
		if ln != nil {
			ln.Close()
		}
		// Nudge every session: cursorless ones exit now, streaming ones
		// keep serving fetches and exit when their last cursor closes.
		for _, sess := range open {
			sess.drain()
		}
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		return nil
	case <-ctx.Done():
		s.Close()
		return ctx.Err()
	}
}

// Draining reports whether a graceful shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// unavailablef builds the retryable drain/capacity rejection.
func (s *Server) unavailablef(format string, args ...any) *wire.Error {
	return &wire.Error{
		Code: wire.CodeUnavailable, Msg: fmt.Sprintf(format, args...),
		Retryable: true, RetryAfterMs: s.retryAfterMs(),
	}
}

func (s *Server) retryAfterMs() uint32 {
	ms := s.cfg.RetryAfter / time.Millisecond
	if ms <= 0 {
		ms = 1
	}
	return uint32(ms)
}

// admit registers a session, enforcing drain, MaxSessions, and the
// overload watermarks.
func (s *Server) admit(sess *session) error {
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		s.cRefused.Inc()
		return s.unavailablef("server draining")
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.mu.Unlock()
		s.cRefused.Inc()
		return s.unavailablef("server at capacity (%d sessions)", s.cfg.MaxSessions)
	}
	s.mu.Unlock()
	if err := s.shedErr(); err != nil {
		s.cRefused.Inc()
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Re-check the states that may have flipped while shedding was
	// evaluated without the lock.
	if s.closed || s.draining {
		s.cRefused.Inc()
		return s.unavailablef("server draining")
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.cRefused.Inc()
		return s.unavailablef("server at capacity (%d sessions)", s.cfg.MaxSessions)
	}
	s.sessions[sess] = struct{}{}
	return nil
}

// shedErr reports the overload rejection when the server is past its
// active-query or heap watermark, nil otherwise. Both signals are the
// ones status() reports, so what an operator sees is what admission
// acts on.
func (s *Server) shedErr() *wire.Error {
	if s.cfg.MaxActiveQueries > 0 {
		if reg := s.cfg.Engine.Registry(); reg != nil {
			if active := len(reg.Active()); active >= s.cfg.MaxActiveQueries {
				s.cSheds.Inc()
				return &wire.Error{
					Code:      wire.CodeOverloaded,
					Msg:       fmt.Sprintf("overloaded: %d active queries at the %d cap", active, s.cfg.MaxActiveQueries),
					Retryable: true, RetryAfterMs: s.retryAfterMs(),
				}
			}
		}
	}
	if s.cfg.MaxHeapBytes > 0 {
		if heap := s.heapAlloc(); heap >= s.cfg.MaxHeapBytes {
			s.cSheds.Inc()
			return &wire.Error{
				Code:      wire.CodeOverloaded,
				Msg:       fmt.Sprintf("overloaded: heap %d bytes over the %d watermark", heap, s.cfg.MaxHeapBytes),
				Retryable: true, RetryAfterMs: s.retryAfterMs(),
			}
		}
	}
	return nil
}

// heapAlloc returns the live heap, sampled at most every
// heapSampleEvery — ReadMemStats stops the world, so admission cannot
// afford a fresh reading per request.
func (s *Server) heapAlloc() uint64 {
	now := time.Now().UnixNano()
	last := s.heapAt.Load()
	if now-last < int64(heapSampleEvery) {
		return s.heapBytes.Load()
	}
	if s.heapAt.CompareAndSwap(last, now) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.heapBytes.Store(ms.HeapAlloc)
	}
	return s.heapBytes.Load()
}

func (s *Server) drop(sess *session) {
	s.mu.Lock()
	delete(s.sessions, sess)
	s.mu.Unlock()
}

// status builds the health snapshot for a Status request.
func (s *Server) status() *wire.StatusOK {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mu.Lock()
	sessions := len(s.sessions)
	draining := s.draining
	s.mu.Unlock()
	var active int
	if reg := s.cfg.Engine.Registry(); reg != nil {
		active = len(reg.Active())
	}
	return &wire.StatusOK{
		HeapAlloc:     ms.HeapAlloc,
		TotalAlloc:    ms.TotalAlloc,
		NumGoroutine:  uint32(runtime.NumGoroutine()),
		Sessions:      uint32(sessions),
		OpenCursors:   uint32(s.cursors.Load()),
		ActiveQueries: uint32(active),
		Draining:      draining,
	}
}

// isTimeout reports a deadline-induced I/O failure.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// serveConn runs one connection's handshake and request loop. The whole
// handshake runs under HandshakeTimeout — a peer that connects and
// never sends a complete Hello is dropped when it expires instead of
// pinning this goroutine and the connection forever.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	if d := s.cfg.HandshakeTimeout; d > 0 {
		conn.SetDeadline(time.Now().Add(d))
	}
	msg, err := wire.Read(conn)
	if err != nil {
		if isTimeout(err) {
			s.cDeadlineDrops.Inc()
		}
		return
	}
	hello, ok := msg.(*wire.Hello)
	if !ok {
		wire.Write(conn, wire.Protocolf("expected Hello, got %T", msg))
		return
	}
	if hello.Version != wire.Version {
		wire.Write(conn, wire.Protocolf("protocol version %d not supported (server speaks %d)",
			hello.Version, wire.Version))
		return
	}
	sess, err := s.newSession(conn, hello.Options)
	if err != nil {
		wire.Write(conn, wire.ToError(err))
		return
	}
	if err := s.admit(sess); err != nil {
		wire.Write(conn, wire.ToError(err))
		return
	}
	defer func() {
		sess.shutdown()
		s.drop(sess)
	}()
	if err := wire.Write(conn, &wire.HelloOK{Version: wire.Version, ServerName: s.cfg.Name}); err != nil {
		return
	}
	// Hand deadline control to the loop's per-request arming.
	conn.SetDeadline(time.Time{})
	sess.loop()
}

// ParseStrategy resolves a strategy name from the handshake/DSN
// vocabulary, which is the engine's (engine.ParseStrategy).
func ParseStrategy(name string) (engine.Strategy, bool) {
	return engine.ParseStrategy(name)
}

// newSession builds a session from handshake options. Unknown option
// keys are rejected — a typo in a DSN should fail the connect, not
// silently run with defaults.
func (s *Server) newSession(conn net.Conn, options []string) (*session, error) {
	if len(options)%2 != 0 {
		return nil, wire.Protocolf("handshake options must be key/value pairs")
	}
	sess := &session{
		srv:      s,
		conn:     conn,
		strategy: s.cfg.Strategy,
		stmts:    make(map[uint64]*engine.Prepared),
		cursors:  make(map[uint64]*cursor),
	}
	sess.ctx, sess.cancel = context.WithCancel(context.Background())
	for i := 0; i+1 < len(options); i += 2 {
		key, val := options[i], options[i+1]
		switch key {
		case "strategy":
			st, ok := ParseStrategy(val)
			if !ok {
				return nil, fmt.Errorf("server: unknown strategy %q", val)
			}
			sess.strategy = st
		case "workers":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("server: bad workers option %q", val)
			}
			sess.workers = n
		default:
			return nil, fmt.Errorf("server: unknown handshake option %q", key)
		}
	}
	return sess, nil
}
