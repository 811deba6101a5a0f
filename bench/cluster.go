package main

import (
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// procStart anchors every timestamp in the trace and the set-up clock.
var procStart = time.Now()

func sinceStart() int64 { return int64(time.Since(procStart)) }

// link observes one point↔parent TCP connection from outside the program:
// byte counts always, and in a traced run the two instants the round's
// stages are cut at.
type link struct {
	written, read atomic.Int64
	// lastWrite is when the newest upload byte left; firstRead is when the
	// first byte after the last reset (the push) became readable. Both are
	// nanoseconds since procStart and only kept when stamp is set.
	lastWrite, firstRead atomic.Int64
	stamp                bool
}

type linkConn struct {
	net.Conn
	l *link
}

func (c linkConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.l.read.Add(int64(n))
		if c.l.stamp {
			c.l.firstRead.CompareAndSwap(0, sinceStart())
		}
	}
	return n, err
}

func (c linkConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.l.written.Add(int64(n))
	if c.l.stamp {
		c.l.lastWrite.Store(sinceStart())
	}
	return n, err
}

// cluster is one live loopback deployment of a workload's shape, booted
// through the transport package's public surface only.
type cluster struct {
	s      spec
	dir    string
	center *transport.CenterServer
	relays []*transport.RelayServer
	points []*transport.PointClient
	links  []*link
	hist   *transport.QueryClient

	// children is the number of direct children of the center: what one
	// epoch appends to the store.
	children int

	logMu   sync.Mutex
	logs    []string
	closing atomic.Bool
}

// logf collects the servers' diagnostics: a healthy run produces none, so
// every line before shutdown counts as a failed operation.
func (c *cluster) logf(format string, args ...any) {
	if c.closing.Load() {
		return
	}
	c.logMu.Lock()
	c.logs = append(c.logs, fmt.Sprintf(format, args...))
	c.logMu.Unlock()
}

const relayIDBase = 1000

// boot starts the center (with its epoch-log store and history RPC), the
// relays if any, dials every point through a counting connection and
// opens the history client.
func boot(s spec, seed uint64, dir string, stamp bool) (c *cluster, err error) {
	c = &cluster{s: s, dir: dir}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ccfg := transport.CenterConfig{
		Addr: "127.0.0.1:0", Kind: s.kind, WindowN: windowN,
		Widths: map[int]int{}, Weights: map[int]int{},
		M: hllM, D: cmDepth, Seed: seed, DeltaUploads: s.delta(),
		StoreDir: dir, HistoryAddr: "127.0.0.1:0", Logf: c.logf,
	}
	if s.replayCacheEpochs > 0 {
		ccfg.ReplayCacheBytes = int64(s.replayCacheEpochs) * partialBytes(s)
	}
	perRelay := 0
	if s.relays > 0 {
		perRelay = s.points / s.relays
		for r := 0; r < s.relays; r++ {
			ccfg.Widths[relayIDBase+r] = s.maxWidth()
			ccfg.Weights[relayIDBase+r] = perRelay
		}
	} else {
		for x := 0; x < s.points; x++ {
			ccfg.Widths[x] = s.width(x)
		}
	}
	c.children = len(ccfg.Widths)
	if c.center, err = transport.ServeCenter(ccfg); err != nil {
		return nil, err
	}
	parent := make([]string, s.points)
	for x := range parent {
		parent[x] = c.center.Addr().String()
	}
	for r := 0; r < s.relays; r++ {
		widths := map[int]int{}
		for x := r * perRelay; x < (r+1)*perRelay; x++ {
			widths[x] = s.width(x)
		}
		rs, err := transport.ServeRelay(transport.RelayConfig{
			Addr: "127.0.0.1:0", UpstreamAddr: c.center.Addr().String(),
			Relay: relayIDBase + r, Kind: s.kind, WindowN: windowN, Widths: widths,
			M: hllM, D: cmDepth, Seed: seed, Logf: c.logf,
		})
		if err != nil {
			return nil, err
		}
		c.relays = append(c.relays, rs)
		for x := range widths {
			parent[x] = rs.Addr().String()
		}
	}
	for x := 0; x < s.points; x++ {
		l := &link{stamp: stamp}
		pc, err := transport.DialPoint(transport.PointConfig{
			Addr: parent[x], Point: x, Kind: s.kind, W: s.width(x),
			M: hllM, D: cmDepth, Seed: seed, DeltaUploads: s.delta(),
			Dial: func(addr string) (net.Conn, error) {
				conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
				if err != nil {
					return nil, err
				}
				return linkConn{conn, l}, nil
			},
		})
		if err != nil {
			return nil, err
		}
		c.points = append(c.points, pc)
		c.links = append(c.links, l)
	}
	if c.hist, err = transport.DialQuery(c.center.HistoryQueryAddr().String()); err != nil {
		return nil, err
	}
	return c, nil
}

// partialBytes approximates the replay cache's charge for one per-epoch
// partial: the fixed encoding of a sketch at the cluster's widest width.
func partialBytes(s spec) int64 {
	if s.kind == transport.KindSize {
		return int64(cmDepth*s.maxWidth()*8 + 64)
	}
	return int64(2*s.maxWidth()*hllM*5/8 + 64)
}

// close tears the deployment down leaves first and removes its store.
// Every server's Close waits for its goroutines.
func (c *cluster) close() {
	c.closing.Store(true)
	if c.hist != nil {
		_ = c.hist.Close()
	}
	for _, p := range c.points {
		_ = p.Close()
	}
	for _, r := range c.relays {
		_ = r.Close()
	}
	if c.center != nil {
		_ = c.center.Close()
	}
	_ = os.RemoveAll(c.dir)
}

// wireBytes sums upload and push bytes over every point↔parent link.
func (c *cluster) wireBytes() int64 {
	var n int64
	for _, l := range c.links {
		n += l.written.Load() + l.read.Load()
	}
	return n
}
