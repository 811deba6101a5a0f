package core

import "sync"

// Cross-shard union queries. In a flow-sharded deployment every point
// runs N sub-points over the same sketch shape, each recording the slice
// of the stream its shard owns. Because a flow's packets land wholly in
// one sub-point, the shard sub-sketches partition the input: their merge
// equals the unsharded sketch bit for bit under both algebras (max and
// add both distribute over a disjoint split), so answering from the
// union of all sub-points' query targets reproduces the flat answer
// exactly — not approximately. The owning shard alone is NOT enough:
// its sketch is missing the other shards' hash collisions, so its
// estimate differs from the flat one even though its own flow's cells
// are exact.

// QueryUnionWithCoverage answers the T-query for flow f from the union of
// this point's query state and every peer's — the flat-equivalent answer
// for a sharded point set — with the union's window coverage: the
// point-epoch counts summed across all sub-points, read under the same
// locks as the estimate so the pair is consistent. All points must share
// one sketch shape and width (they do by construction: shards are config
// clones). Locks are taken in argument order, self first; concurrent
// callers must present peers in one consistent order (e.g. always call on
// shard 0 with shards 1..N-1 as peers).
func (p *Point[S]) QueryUnionWithCoverage(f uint64, peers []*Point[S]) (float64, Coverage) {
	p.mu.Lock()
	cov := p.covCur
	extras := make([]S, 0, (len(peers)+1)*(maxShards+4))
	locked := make([]*sync.Mutex, 0, (len(peers)+1)*(maxShards+4))
	extras, locked = p.gatherLocked(extras, locked)
	for _, q := range peers {
		if q == nil || q == p {
			continue
		}
		q.mu.Lock()
		locked = append(locked, &q.mu)
		cov.EpochsMerged += q.covCur.EpochsMerged
		cov.EpochsExpected += q.covCur.EpochsExpected
		extras = append(extras, q.c)
		extras, locked = q.gatherLocked(extras, locked)
	}
	est := p.c.EstimateUnion(f, extras)
	for i := len(locked) - 1; i >= 0; i-- {
		locked[i].Unlock()
	}
	p.mu.Unlock()
	return est, cov
}
