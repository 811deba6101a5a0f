package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"sync"

	"repro/internal/core"
)

// The baseline peer-query RPC: a persistent TCP connection carrying fixed
// 8-byte little-endian flow-label requests and 8-byte float64 responses.
// One request is in flight at a time per connection, which is exactly the
// access pattern of a baseline answering a networkwide query — and the
// round trip it pays per peer is the cost Table I measures.
//
// Coverage extension: the reserved flow label covMagic (all ones — never a
// real flow) prefixes a 16-byte request [magic, flow] whose response is 24
// bytes [estimate, epochs merged, epochs expected]. Plain 8-byte requests
// keep their 8-byte responses, so old clients interoperate with new
// servers unchanged.

// covMagic is the reserved flow label that upgrades one request to the
// coverage-carrying form.
const covMagic = ^uint64(0)

// Historical-query extension: two more reserved flow labels open the
// time-travel forms, answered from the durable epoch log instead of the
// live window (docs/PROTOCOL.md "Historical-query RPC"):
//
//	atMagic:    24-byte request [magic, flow, epoch]    — the window as
//	            of a past epoch (tqquery -at)
//	rangeMagic: 32-byte request [magic, flow, from, to] — an arbitrary
//	            epoch range (tqquery -range)
//
// Both respond with the 24-byte coverage form [estimate, merged,
// expected]. A server without a store (or a failed replay) answers
// NaN with zero coverage, which clients surface as an error — the
// stream stays framed either way, so history-blind deployments
// interoperate.
const (
	atMagic    = ^uint64(0) - 1
	rangeMagic = ^uint64(0) - 2
)

// HistoryHandler answers historical (epoch-log) queries. Either hook may
// be nil; unanswerable requests produce the NaN error response.
type HistoryHandler struct {
	// At answers the windowed T-query as of a past epoch k.
	At func(flow uint64, k int64) (float64, core.Coverage, error)
	// Range answers the join over the arbitrary epoch range [from, to].
	Range func(flow uint64, from, to int64) (float64, core.Coverage, error)
}

// QueryServer serves windowed query answers for one local sketch.
type QueryServer struct {
	ln      net.Listener
	handler func(flow uint64) (float64, core.Coverage)
	history HistoryHandler
	conns   connSet
	wg      sync.WaitGroup
}

// ServeQueries starts a query server on addr whose answers come from
// handler. The handler must be safe for concurrent use. Coverage requests
// are answered with a whole window (legacy handlers have no degradation
// signal to report).
func ServeQueries(addr string, handler func(flow uint64) float64) (*QueryServer, error) {
	return ServeQueriesCov(addr, func(flow uint64) (float64, core.Coverage) {
		return handler(flow), core.Coverage{}
	})
}

// ServeQueriesCov is ServeQueries for handlers that report per-query
// window coverage (graceful degradation under center or point faults).
func ServeQueriesCov(addr string, handler func(flow uint64) (float64, core.Coverage)) (*QueryServer, error) {
	return ServeQueriesHist(addr, handler, HistoryHandler{})
}

// ServeQueriesHist is ServeQueriesCov for servers that can additionally
// answer historical queries from a durable epoch log.
func ServeQueriesHist(addr string, handler func(flow uint64) (float64, core.Coverage), hist HistoryHandler) (*QueryServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: query listen: %w", err)
	}
	s := &QueryServer{ln: ln, handler: handler, history: hist}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *QueryServer) Addr() net.Addr { return s.ln.Addr() }

// Close stops the server and severs every client connection.
func (s *QueryServer) Close() error {
	s.conns.closeAll()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *QueryServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer conn.Close()
			if !s.conns.track(conn) {
				return
			}
			defer s.conns.untrack(conn)
			var buf [24]byte
			for {
				if _, err := io.ReadFull(conn, buf[:8]); err != nil {
					return
				}
				flow := binary.LittleEndian.Uint64(buf[:8])
				switch flow {
				case covMagic:
					// Coverage form: the real flow label follows the
					// magic, and the response carries the window
					// coverage alongside the estimate.
					if _, err := io.ReadFull(conn, buf[:8]); err != nil {
						return
					}
					flow = binary.LittleEndian.Uint64(buf[:8])
					v, cov := s.handler(flow)
					if _, err := conn.Write(encodeCovResponse(v, cov)); err != nil {
						return
					}
					continue
				case atMagic:
					// Historical form: [flow, epoch] follow the magic.
					// Always consumed, answered NaN without a store —
					// the frame boundary survives either way.
					if _, err := io.ReadFull(conn, buf[:16]); err != nil {
						return
					}
					flow = binary.LittleEndian.Uint64(buf[0:8])
					k := int64(binary.LittleEndian.Uint64(buf[8:16]))
					v, cov, err := math.NaN(), core.Coverage{}, error(nil)
					if s.history.At != nil {
						v, cov, err = s.history.At(flow, k)
					}
					if err != nil {
						v, cov = math.NaN(), core.Coverage{}
					}
					if _, err := conn.Write(encodeCovResponse(v, cov)); err != nil {
						return
					}
					continue
				case rangeMagic:
					// Historical range form: [flow, from, to].
					if _, err := io.ReadFull(conn, buf[:24]); err != nil {
						return
					}
					flow = binary.LittleEndian.Uint64(buf[0:8])
					from := int64(binary.LittleEndian.Uint64(buf[8:16]))
					to := int64(binary.LittleEndian.Uint64(buf[16:24]))
					v, cov, err := math.NaN(), core.Coverage{}, error(nil)
					if s.history.Range != nil {
						v, cov, err = s.history.Range(flow, from, to)
					}
					if err != nil {
						v, cov = math.NaN(), core.Coverage{}
					}
					if _, err := conn.Write(encodeCovResponse(v, cov)); err != nil {
						return
					}
					continue
				}
				v, _ := s.handler(flow)
				binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(v))
				if _, err := conn.Write(buf[:8]); err != nil {
					return
				}
			}
		}()
	}
}

// Wire-frame helpers shared by the server, the client, and the protocol
// golden pins — one encoder per frame so the pinned bytes and the live
// bytes cannot drift apart.

func encodeCovResponse(v float64, cov core.Coverage) []byte {
	b := make([]byte, 24)
	binary.LittleEndian.PutUint64(b[0:8], math.Float64bits(v))
	binary.LittleEndian.PutUint64(b[8:16], uint64(cov.EpochsMerged))
	binary.LittleEndian.PutUint64(b[16:24], uint64(cov.EpochsExpected))
	return b
}

func encodeAtRequest(f uint64, k int64) []byte {
	b := make([]byte, 24)
	binary.LittleEndian.PutUint64(b[0:8], atMagic)
	binary.LittleEndian.PutUint64(b[8:16], f)
	binary.LittleEndian.PutUint64(b[16:24], uint64(k))
	return b
}

func encodeRangeRequest(f uint64, from, to int64) []byte {
	b := make([]byte, 32)
	binary.LittleEndian.PutUint64(b[0:8], rangeMagic)
	binary.LittleEndian.PutUint64(b[8:16], f)
	binary.LittleEndian.PutUint64(b[16:24], uint64(from))
	binary.LittleEndian.PutUint64(b[24:32], uint64(to))
	return b
}

func decodeCovResponse(b []byte) (float64, core.Coverage) {
	v := math.Float64frombits(binary.LittleEndian.Uint64(b[0:8]))
	cov := core.Coverage{
		EpochsMerged:   int(binary.LittleEndian.Uint64(b[8:16])),
		EpochsExpected: int(binary.LittleEndian.Uint64(b[16:24])),
	}
	return v, cov
}

// QueryClient issues peer queries over one persistent connection. It
// implements both baseline peer interfaces (size answers are rounded).
type QueryClient struct {
	mu   sync.Mutex
	conn net.Conn
	buf  [24]byte
}

// DialQuery connects to a peer's query server.
func DialQuery(addr string) (*QueryClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial query peer: %w", err)
	}
	return &QueryClient{conn: conn}, nil
}

// Query fetches the peer's windowed estimate for one flow.
func (c *QueryClient) Query(f uint64) (float64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	binary.LittleEndian.PutUint64(c.buf[:8], f)
	if _, err := c.conn.Write(c.buf[:8]); err != nil {
		return 0, fmt.Errorf("transport: query write: %w", err)
	}
	if _, err := io.ReadFull(c.conn, c.buf[:8]); err != nil {
		return 0, fmt.Errorf("transport: query read: %w", err)
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(c.buf[:8])), nil
}

// QueryCov fetches the peer's windowed estimate together with the window
// coverage behind it. The peer must be a coverage-aware server
// (ServeQueriesCov or newer ServeQueries); an old 8-byte-only server would
// misread the magic prefix as a flow label.
func (c *QueryClient) QueryCov(f uint64) (float64, core.Coverage, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	binary.LittleEndian.PutUint64(c.buf[0:8], covMagic)
	binary.LittleEndian.PutUint64(c.buf[8:16], f)
	if _, err := c.conn.Write(c.buf[:16]); err != nil {
		return 0, core.Coverage{}, fmt.Errorf("transport: query write: %w", err)
	}
	if _, err := io.ReadFull(c.conn, c.buf[:24]); err != nil {
		return 0, core.Coverage{}, fmt.Errorf("transport: query read: %w", err)
	}
	v, cov := decodeCovResponse(c.buf[:24])
	return v, cov, nil
}

// QueryAt fetches the peer's historical windowed estimate as of epoch k,
// replayed from its durable epoch log. A peer without a store (or a
// failed replay) answers NaN, surfaced here as an error.
func (c *QueryClient) QueryAt(f uint64, k int64) (float64, core.Coverage, error) {
	return c.historyCall(encodeAtRequest(f, k))
}

// QueryRange fetches the peer's historical estimate over the epoch range
// [from, to].
func (c *QueryClient) QueryRange(f uint64, from, to int64) (float64, core.Coverage, error) {
	return c.historyCall(encodeRangeRequest(f, from, to))
}

func (c *QueryClient) historyCall(req []byte) (float64, core.Coverage, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.conn.Write(req); err != nil {
		return 0, core.Coverage{}, fmt.Errorf("transport: history query write: %w", err)
	}
	if _, err := io.ReadFull(c.conn, c.buf[:24]); err != nil {
		return 0, core.Coverage{}, fmt.Errorf("transport: history query read: %w", err)
	}
	v, cov := decodeCovResponse(c.buf[:24])
	if math.IsNaN(v) {
		return 0, cov, fmt.Errorf("transport: peer cannot answer historical query (no store, or replay failed)")
	}
	return v, cov, nil
}

// QuerySpread implements baseline.SpreadPeer.
func (c *QueryClient) QuerySpread(f uint64) (float64, error) {
	return c.Query(f)
}

// QuerySize implements baseline.SizePeer.
func (c *QueryClient) QuerySize(f uint64) (int64, error) {
	v, err := c.Query(f)
	if err != nil {
		return 0, err
	}
	return int64(math.Round(v)), nil
}

// Close drops the connection.
func (c *QueryClient) Close() error {
	return c.conn.Close()
}
