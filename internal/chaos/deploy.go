package chaos

import (
	"fmt"
	"net"
	"os"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/transport"
)

// Deployment parameters shared by every topology class. They are small on
// purpose: a chaos run's value is in the schedule breadth, not the sketch
// size, and the oracle comparison is exact at any width.
const (
	chaosWindowN = 5
	chaosPoints  = 3
	chaosW       = 32
	chaosM       = 16
	chaosD       = 4
	chaosShards  = 2

	// Liveness knobs. Servers starve silent children out after
	// chaosReadTimeout; leaves and relays heartbeat an order of magnitude
	// faster, so only a genuinely half-open peer is ever evicted on a
	// healthy fabric (spurious evictions under extreme scheduling delay
	// are recoverable — the engine asserts recovery, never counters).
	chaosReadTimeout  = 300 * time.Millisecond
	chaosWriteTimeout = 300 * time.Millisecond
	chaosHeartbeat    = 25 * time.Millisecond
)

// leaf is one measurement point of a chaos deployment, flat or sharded.
type leaf interface {
	Record(f, e uint64)
	EndEpoch() error
	Redial() error
	Close() error
	Coverage() (core.Coverage, error)
	WaitPushEpoch(e int64, timeout time.Duration) bool
	QuerySpread(f uint64) (float64, error)
	QuerySize(f uint64) (int64, error)
}

// pointLeaf adapts *transport.PointClient.
type pointLeaf struct{ *transport.PointClient }

func (p pointLeaf) Coverage() (core.Coverage, error) { return p.PointClient.Coverage(), nil }

// shardLeaf adapts *transport.ShardedPointClient.
type shardLeaf struct{ *transport.ShardedPointClient }

func (s shardLeaf) Coverage() (core.Coverage, error) {
	if _, cov, err := s.QuerySpreadWithCoverage(0); err == nil {
		return cov, nil
	}
	_, cov, err := s.QuerySizeWithCoverage(0)
	return cov, err
}

func (s shardLeaf) WaitPushEpoch(e int64, timeout time.Duration) bool {
	for i := 0; i < s.Shards(); i++ {
		if !s.Sub(i).WaitPushEpoch(e, timeout) {
			return false
		}
	}
	return true
}

// rootNode is one restartable center (the single center, or one shard).
type rootNode struct {
	name string
	cfg  transport.CenterConfig
	srv  *transport.CenterServer
}

// relayNode is one restartable aggregation relay plus its upstream link
// (the fault controls for the relay→parent hop).
type relayNode struct {
	name   string
	id     int
	cfg    transport.RelayConfig
	upLink *faultnet.Link
	srv    *transport.RelayServer
}

// leafNode is one leaf client plus the fault links of every connection it
// holds (one for flat/tree leaves, one per shard for sharded leaves).
type leafNode struct {
	client leaf
	links  []*faultnet.Link
}

// deployment is one running topology over a faultnet fabric, with every
// node restartable from its checkpoint and every hop's fault controls in
// hand.
type deployment struct {
	cfg    Config
	fnet   *faultnet.Network
	tmpDir string
	roots  []*rootNode
	relays []*relayNode
	leaves []*leafNode
}

func (d *deployment) close() {
	for _, ln := range d.leaves {
		_ = ln.client.Close()
	}
	for _, rn := range d.relays {
		if rn.srv != nil {
			_ = rn.srv.Close()
		}
	}
	for _, r := range d.roots {
		if r.srv != nil {
			_ = r.srv.Close()
		}
	}
	if d.tmpDir != "" {
		_ = os.RemoveAll(d.tmpDir)
	}
}

// delta reports whether the deployment runs delta uploads. Size designs
// must whenever a relay or shard sits between point and center; spread
// pre-merges losslessly either way (mirrors the transport fault
// matrices).
func (d *deployment) delta() bool {
	return d.cfg.Kind == transport.KindSize && (len(d.relays) > 0 || len(d.roots) > 1)
}

func (d *deployment) ckptDir(name string) string {
	dir := fmt.Sprintf("%s/%s", d.tmpDir, name)
	_ = os.MkdirAll(dir, 0o755)
	return dir
}

// restartRoot revives root i on its faultnet node, restoring from its
// checkpoint directory — a crash-with-durability restart.
func (d *deployment) restartRoot(i int) error {
	r := d.roots[i]
	r.cfg.Listener = d.fnet.ListenAt(r.name)
	srv, err := transport.ServeCenter(r.cfg)
	if err != nil {
		return fmt.Errorf("chaos: restart root %s: %w", r.name, err)
	}
	r.srv = srv
	return nil
}

// restartRelay revives relay i, restoring from its checkpoint.
func (d *deployment) restartRelay(i int) error {
	rn := d.relays[i]
	rn.cfg.Listener = d.fnet.ListenAt(rn.name)
	srv, err := transport.ServeRelay(rn.cfg)
	if err != nil {
		return fmt.Errorf("chaos: restart relay %s: %w", rn.name, err)
	}
	rn.srv = srv
	return nil
}

// leafPointConfig is the PointConfig shared by every flat/tree leaf:
// fast bounded redial (the chaos clock is logical, not wall), heartbeats
// under the servers' read deadline, and bounded writes.
func (d *deployment) leafPointConfig(x int, addr string, dial func(string) (net.Conn, error)) transport.PointConfig {
	return transport.PointConfig{
		Addr: addr, Point: x, Kind: d.cfg.Kind,
		W: chaosW, M: chaosM, D: chaosD, Seed: uint64(d.cfg.Seed),
		Dial:           dial,
		RedialAttempts: 8, RedialBackoff: time.Millisecond,
		RedialBackoffMax: 4 * time.Millisecond,
		DeltaUploads:     d.delta(),
		WriteTimeout:     chaosWriteTimeout,
		HeartbeatEvery:   chaosHeartbeat,
	}
}

// buildFlat deploys one center and chaosPoints direct points.
func buildFlat(d *deployment) error {
	widths := map[int]int{}
	for x := 0; x < chaosPoints; x++ {
		widths[x] = chaosW
	}
	root := &rootNode{name: faultnet.DefaultNode, cfg: transport.CenterConfig{
		Kind: d.cfg.Kind, WindowN: chaosWindowN,
		Widths: widths, M: chaosM, D: chaosD, Seed: uint64(d.cfg.Seed),
		CheckpointDir: d.ckptDir("center"), CheckpointEvery: 1,
		StoreDir:    d.ckptDir("center"),
		ReadTimeout: chaosReadTimeout, WriteTimeout: chaosWriteTimeout,
		Logf: d.cfg.Logf,
	}}
	d.roots = []*rootNode{root}
	if err := d.restartRoot(0); err != nil {
		return err
	}
	for x := 0; x < chaosPoints; x++ {
		link := d.fnet.Link()
		pc, err := transport.DialPoint(d.leafPointConfig(x, "faultnet:center", link.Dial))
		if err != nil {
			return fmt.Errorf("chaos: dial point %d: %w", x, err)
		}
		d.leaves = append(d.leaves, &leafNode{client: pointLeaf{pc}, links: []*faultnet.Link{link}})
	}
	return nil
}

// buildTree deploys a 2–3 level aggregation tree drawn from the seeded
// rng via cluster.RandomTopology (redrawn until at least one relay has a
// child, so the class actually exercises the relay tier).
func buildTree(d *deployment, topo cluster.Topology) error {
	// children[par] and the relay set (every parent id in the topology).
	children := map[int][]int{}
	for child, par := range topo {
		children[par] = append(children[par], child)
	}
	for _, kids := range children {
		sort.Ints(kids)
	}
	var weight func(id int) int
	weight = func(id int) int {
		if id < chaosPoints {
			return 1
		}
		w := 0
		for _, c := range children[id] {
			w += weight(c)
		}
		return w
	}
	// depth orders relay start top-down: a relay dials its parent at
	// startup, so parents must be listening first.
	depth := func(id int) int {
		n := 0
		for {
			par, ok := topo[id]
			if !ok {
				return n
			}
			id, n = par, n+1
		}
	}
	var relayIDs []int
	for id := range children {
		relayIDs = append(relayIDs, id)
	}
	sort.Slice(relayIDs, func(i, j int) bool {
		di, dj := depth(relayIDs[i]), depth(relayIDs[j])
		if di != dj {
			return di < dj
		}
		return relayIDs[i] < relayIDs[j]
	})

	// The center serves every node without a parent.
	topWidths, topWeights := map[int]int{}, map[int]int{}
	for x := 0; x < chaosPoints; x++ {
		if _, ok := topo[x]; !ok {
			topWidths[x], topWeights[x] = chaosW, 1
		}
	}
	for _, r := range relayIDs {
		if _, ok := topo[r]; !ok {
			topWidths[r], topWeights[r] = chaosW, weight(r)
		}
	}
	root := &rootNode{name: faultnet.DefaultNode, cfg: transport.CenterConfig{
		Kind: d.cfg.Kind, WindowN: chaosWindowN,
		Widths: topWidths, Weights: topWeights,
		M: chaosM, D: chaosD, Seed: uint64(d.cfg.Seed),
		DeltaUploads:  d.cfg.Kind == transport.KindSize,
		CheckpointDir: d.ckptDir("center"), CheckpointEvery: 1,
		StoreDir:    d.ckptDir("center"),
		ReadTimeout: chaosReadTimeout, WriteTimeout: chaosWriteTimeout,
		Logf: d.cfg.Logf,
	}}
	d.roots = []*rootNode{root}
	if err := d.restartRoot(0); err != nil {
		return err
	}

	nodeName := func(id int) string {
		if _, isRelay := children[id]; isRelay {
			return fmt.Sprintf("relay%d", id)
		}
		return faultnet.DefaultNode
	}
	parentName := func(id int) string {
		if par, ok := topo[id]; ok {
			return nodeName(par)
		}
		return faultnet.DefaultNode
	}
	for _, r := range relayIDs {
		widths, weights := map[int]int{}, map[int]int{}
		for _, c := range children[r] {
			widths[c], weights[c] = chaosW, weight(c)
		}
		up := d.fnet.LinkTo(parentName(r))
		rn := &relayNode{name: nodeName(r), id: r, upLink: up, cfg: transport.RelayConfig{
			UpstreamAddr: "faultnet:" + parentName(r), UpstreamDial: up.Dial,
			Relay: r, Kind: d.cfg.Kind, WindowN: chaosWindowN,
			Widths: widths, Weights: weights,
			M: chaosM, D: chaosD, Seed: uint64(d.cfg.Seed),
			RedialBackoff: time.Millisecond, RedialBackoffMax: 4 * time.Millisecond,
			CheckpointDir: d.ckptDir(nodeName(r)), CheckpointEvery: 1,
			ReadTimeout: chaosReadTimeout, WriteTimeout: chaosWriteTimeout,
			HeartbeatEvery: chaosHeartbeat,
			Logf:           d.cfg.Logf,
		}}
		d.relays = append(d.relays, rn)
		if err := d.restartRelay(len(d.relays) - 1); err != nil {
			return err
		}
	}
	for x := 0; x < chaosPoints; x++ {
		pn := parentName(x)
		link := d.fnet.LinkTo(pn)
		pc, err := transport.DialPoint(d.leafPointConfig(x, "faultnet:"+pn, link.Dial))
		if err != nil {
			return fmt.Errorf("chaos: dial point %d: %w", x, err)
		}
		d.leaves = append(d.leaves, &leafNode{client: pointLeaf{pc}, links: []*faultnet.Link{link}})
	}
	return nil
}

// buildShard deploys chaosShards flow-sharded centers and sharded points,
// optionally with one aggregation relay in front of every shard (the
// tree-of-shards class): point → relay-s<i> → shard<i>.
func buildShard(d *deployment, withRelays bool) error {
	widths := map[int]int{}
	for x := 0; x < chaosPoints; x++ {
		widths[x] = chaosW
	}
	const relayID = 100
	delta := d.cfg.Kind == transport.KindSize && withRelays
	for i := 0; i < chaosShards; i++ {
		name := fmt.Sprintf("shard%d", i)
		cfg := transport.CenterConfig{
			Kind: d.cfg.Kind, WindowN: chaosWindowN,
			M: chaosM, D: chaosD, Seed: uint64(d.cfg.Seed), Shard: i,
			DeltaUploads:  delta,
			CheckpointDir: d.ckptDir(name), CheckpointEvery: 1,
			StoreDir:    d.ckptDir(name),
			ReadTimeout: chaosReadTimeout, WriteTimeout: chaosWriteTimeout,
			Logf: d.cfg.Logf,
		}
		if withRelays {
			cfg.Widths = map[int]int{relayID: chaosW}
			cfg.Weights = map[int]int{relayID: chaosPoints}
		} else {
			cfg.Widths = widths
		}
		d.roots = append(d.roots, &rootNode{name: name, cfg: cfg})
		if err := d.restartRoot(i); err != nil {
			return err
		}
	}
	leafNodes := make([]string, chaosShards)
	for i := range leafNodes {
		leafNodes[i] = fmt.Sprintf("shard%d", i)
	}
	if withRelays {
		for i := 0; i < chaosShards; i++ {
			name := fmt.Sprintf("relay-s%d", i)
			up := d.fnet.LinkTo(fmt.Sprintf("shard%d", i))
			rn := &relayNode{name: name, id: relayID, upLink: up, cfg: transport.RelayConfig{
				UpstreamAddr: fmt.Sprintf("faultnet:shard%d", i), UpstreamDial: up.Dial,
				Relay: relayID, Kind: d.cfg.Kind, WindowN: chaosWindowN,
				Widths: widths,
				M:      chaosM, D: chaosD, Seed: uint64(d.cfg.Seed), Shard: i,
				RedialBackoff: time.Millisecond, RedialBackoffMax: 4 * time.Millisecond,
				CheckpointDir: d.ckptDir(name), CheckpointEvery: 1,
				ReadTimeout: chaosReadTimeout, WriteTimeout: chaosWriteTimeout,
				HeartbeatEvery: chaosHeartbeat,
				Logf:           d.cfg.Logf,
			}}
			d.relays = append(d.relays, rn)
			if err := d.restartRelay(len(d.relays) - 1); err != nil {
				return err
			}
			leafNodes[i] = name
		}
	}
	addrs := make([]string, chaosShards)
	for i := range addrs {
		addrs[i] = "faultnet:" + leafNodes[i]
	}
	for x := 0; x < chaosPoints; x++ {
		links := make([]*faultnet.Link, chaosShards)
		for i := range links {
			links[i] = d.fnet.LinkTo(leafNodes[i])
		}
		sc, err := transport.DialShardedPoint(transport.ShardedPointConfig{
			Addrs: addrs, Point: x, Kind: d.cfg.Kind,
			W: chaosW, M: chaosM, D: chaosD, Seed: uint64(d.cfg.Seed),
			Dial: func(addr string) (net.Conn, error) {
				for i := range addrs {
					if addr == addrs[i] {
						return links[i].Dial(addr)
					}
				}
				return nil, fmt.Errorf("chaos: unknown shard addr %q", addr)
			},
			RedialAttempts: 8, RedialBackoff: time.Millisecond,
			RedialBackoffMax: 4 * time.Millisecond,
			DeltaUploads:     delta,
			WriteTimeout:     chaosWriteTimeout,
			HeartbeatEvery:   chaosHeartbeat,
		})
		if err != nil {
			return fmt.Errorf("chaos: dial sharded point %d: %w", x, err)
		}
		d.leaves = append(d.leaves, &leafNode{client: shardLeaf{sc}, links: links})
	}
	return nil
}
