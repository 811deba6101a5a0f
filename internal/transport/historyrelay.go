package transport

import (
	"fmt"
	"io"
	"net"
	"sync"
)

// HistoryRelay is the aggregation tree's query hop: a transparent TCP
// proxy that forwards query RPC frames (live, coverage, and historical
// forms alike) from children toward the center's history server. Relays
// hold only pre-merged subtree state — they cannot answer networkwide
// queries themselves — so the proxy simply extends the center's query
// surface down the tree: a client in any subtree dials its local relay
// and reaches the root's epoch-log store. Because the RPC is strictly
// request/response over one connection, byte-level forwarding preserves
// framing without the proxy understanding any frame.
type HistoryRelay struct {
	ln       net.Listener
	upstream string
	dial     func(addr string) (net.Conn, error)
	conns    connSet
	wg       sync.WaitGroup
}

// ServeHistoryRelay starts a history-query proxy on addr forwarding to
// upstream (a center's HistoryAddr or a higher relay's proxy). The
// upstream is dialed lazily per client connection, so the proxy starts
// and survives while the upstream is down — clients just see their
// connections refused until it returns.
func ServeHistoryRelay(addr, upstream string) (*HistoryRelay, error) {
	return serveHistoryRelay(addr, upstream, nil)
}

func serveHistoryRelay(addr, upstream string, dial func(string) (net.Conn, error)) (*HistoryRelay, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: history relay listen: %w", err)
	}
	if dial == nil {
		dial = func(a string) (net.Conn, error) { return net.Dial("tcp", a) }
	}
	r := &HistoryRelay{ln: ln, upstream: upstream, dial: dial}
	r.wg.Add(1)
	go r.acceptLoop()
	return r, nil
}

// Addr returns the bound listen address.
func (r *HistoryRelay) Addr() net.Addr { return r.ln.Addr() }

// Close stops the proxy and severs every forwarded connection.
func (r *HistoryRelay) Close() error {
	r.conns.closeAll()
	err := r.ln.Close()
	r.wg.Wait()
	return err
}

func (r *HistoryRelay) acceptLoop() {
	defer r.wg.Done()
	for {
		child, err := r.ln.Accept()
		if err != nil {
			return // listener closed
		}
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			r.forward(child)
		}()
	}
}

// forward splices one child connection onto a fresh upstream connection
// until either side closes. Closing the counterpart on the first copy
// error unblocks the other direction's Read.
func (r *HistoryRelay) forward(child net.Conn) {
	defer child.Close()
	if !r.conns.track(child) {
		return
	}
	defer r.conns.untrack(child)
	up, err := r.dial(r.upstream)
	if err != nil {
		return // child sees EOF; its client reports the dial failure
	}
	defer up.Close()
	if !r.conns.track(up) {
		return
	}
	defer r.conns.untrack(up)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = io.Copy(up, child)
		_ = up.Close()
	}()
	_, _ = io.Copy(child, up)
	_ = child.Close()
	<-done
}
