package inp

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"fractal/internal/arena"
)

// Handler serves one session on c. Its opening frame has just been read:
// h is that frame's header and raw its body, valid only until the next
// Recv on c. A non-nil error ends the connection and is logged.
type Handler func(c *Conn, h Header, raw []byte) error

// Server is the one serving skeleton under every INP role (adaptation
// proxy, PAD server, application server): it owns accept, admission,
// per-connection setup, the idle bound, and shutdown, and hands each
// session's opening frame to the role's Handler. Connections are
// persistent: a client may run session after session on one connection.
// Server is safe for concurrent use.
type Server struct {
	name   string
	handle Handler
	sem    chan struct{}
	logf   func(string, ...interface{})
	// idle bounds each read and write of a session, including the wait
	// for the next session's first byte; zero means no bound.
	idle time.Duration

	mu     sync.Mutex
	ln     net.Listener
	closed bool
	// done is closed by Close, so an accept loop waiting for a
	// concurrency slot abandons its pending connection.
	done chan struct{}
	// conns maps every live connection to whether it sits idle at a
	// session boundary, where Close may drop it.
	conns map[net.Conn]bool
	wg    sync.WaitGroup
}

// NewServer returns a skeleton serving handle under the role name (used
// in errors and logs). maxConcurrent bounds simultaneously served
// connections; logf defaults to log.Printf.
func NewServer(name string, maxConcurrent int, logf func(string, ...interface{}), handle Handler) (*Server, error) {
	if maxConcurrent < 1 {
		return nil, fmt.Errorf("%s: server concurrency must be >= 1, got %d", name, maxConcurrent)
	}
	if logf == nil {
		logf = log.Printf
	}
	return &Server{
		name:   name,
		handle: handle,
		sem:    make(chan struct{}, maxConcurrent),
		logf:   logf,
		done:   make(chan struct{}),
		conns:  map[net.Conn]bool{},
	}, nil
}

// SetIdleTimeout bounds every read and write of a session, and the wait
// between sessions; it must be called before Serve.
func (s *Server) SetIdleTimeout(d time.Duration) { s.idle = d }

// Serve accepts connections from l until Close. It returns nil after a
// clean shutdown.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("%s: server already closed", s.name)
	}
	s.ln = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			if s.isClosed() {
				s.wg.Wait()
				return nil
			}
			return fmt.Errorf("%s: accept: %w", s.name, err)
		}
		select {
		case s.sem <- struct{}{}:
		case <-s.done:
			// Close ran while we waited for a concurrency slot: drop the
			// pending connection rather than serving it after shutdown.
			conn.Close()
			s.wg.Wait()
			return nil
		}
		if !s.track(conn) {
			<-s.sem
			conn.Close()
			continue
		}
		go func() {
			defer func() {
				<-s.sem
				s.untrack(conn)
			}()
			defer conn.Close()
			if err := s.serve(conn); err != nil {
				s.logf("%s: session from %s: %v", s.name, conn.RemoteAddr(), err)
			}
		}()
	}
}

// ServeConn serves sessions over an established connection until the
// peer disconnects, outside the accept loop (in-process transports,
// tests). It counts toward Close's drain like an accepted connection but
// bypasses the concurrency bound, and it returns nil once Close has begun.
func (s *Server) ServeConn(rw net.Conn) error {
	if !s.track(rw) {
		return nil
	}
	defer s.untrack(rw)
	return s.serve(rw)
}

// Close stops accepting, drops connections idle at a session boundary,
// and waits for every session in flight. It is idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	alreadyClosed := s.closed
	s.closed = true
	ln := s.ln
	var idle []net.Conn
	for c, isIdle := range s.conns {
		if isIdle {
			idle = append(idle, c)
		}
	}
	s.mu.Unlock()
	var err error
	if !alreadyClosed {
		close(s.done)
		if ln != nil {
			err = ln.Close()
		}
	}
	for _, c := range idle {
		c.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// track registers a live connection, idle until its first frame arrives.
// It reports false once Close has begun.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = true
	s.wg.Add(1)
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	s.wg.Done()
}

// setIdle marks conn idle at a session boundary or busy in a session. It
// reports false once Close has begun: an idle connection may already be
// closed, and a busy one must not start another session.
func (s *Server) setIdle(conn net.Conn, idle bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = idle
	return true
}

// serve runs the session loop on one connection: one arena session and
// one Conn for its whole life, each opening frame dispatched to the
// handler. EOF at a session boundary is the clean end of the connection.
func (s *Server) serve(rw net.Conn) error {
	sess := arena.AcquireSession()
	defer sess.Release()
	c := NewConnSession(rw, sess)
	c.SetTimeout(s.idle)
	for first := true; ; first = false {
		if !s.setIdle(rw, true) {
			return nil
		}
		// The connection is idle until the next session's first byte
		// arrives; only then is a session in flight for Close to wait on.
		err := c.awaitFrame()
		if err != nil && (s.isClosed() || !first && errors.Is(err, io.EOF)) {
			// Dropped by Close, or the peer hung up between sessions.
			return nil
		}
		if err == nil && !s.setIdle(rw, false) {
			return nil
		}
		var h Header
		var raw []byte
		if err == nil {
			h, raw, err = c.Recv()
		}
		if err != nil {
			if first {
				return fmt.Errorf("reading first message: %w", err)
			}
			return fmt.Errorf("reading next session: %w", err)
		}
		if err := s.handle(c, h, raw); err != nil {
			return err
		}
	}
}
