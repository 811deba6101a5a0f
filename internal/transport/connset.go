package transport

import (
	"net"
	"sync"
)

// connSet tracks a server's live connections so Close can sever them. A
// handler blocked reading from an idle client never returns on its own,
// so a server that only closed its listener would wait on it forever.
type connSet struct {
	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
}

// track registers a live connection for teardown; it reports false (and
// closes the connection) when the server is already closing.
func (s *connSet) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		_ = c.Close()
		return false
	}
	if s.conns == nil {
		s.conns = make(map[net.Conn]struct{})
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *connSet) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// closeAll refuses further connections and closes every tracked one.
func (s *connSet) closeAll() {
	s.mu.Lock()
	s.closed = true
	conns := s.conns
	s.conns = nil
	s.mu.Unlock()
	for c := range conns {
		_ = c.Close()
	}
}
