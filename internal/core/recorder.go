package core

import "slices"

// Recorder is a privately owned ingest lane of a Point: the record path
// for a worker that wants a lock nobody else competes for (one per
// ingest goroutine, the run-to-completion layout). It runs the same body
// as Point.Record/RecordBatch — see lane.go — and is folded at the same
// fold points, so every record is visible to Query and EndEpoch when the
// call returns.
//
// Record and RecordBatch must only be called by the owning worker; the
// point's fold points may run concurrently with them.
type Recorder[S Sketch[S]] struct {
	l *lane[S]
	p *Point[S]
}

// NewRecorder registers and returns a private ingest lane for one worker.
// An idle recorder costs the fold points one atomic load; a worker that
// stops for good drops it with Close.
func (p *Point[S]) NewRecorder() *Recorder[S] {
	r := &Recorder[S]{l: &lane[S]{d: p.fresh()}, p: p}
	p.mu.Lock()
	p.lanes = append(p.lanes, r.l)
	p.mu.Unlock()
	return r
}

// Record inserts packet <f, e>.
func (r *Recorder[S]) Record(f, e uint64) { r.l.record(f, e) }

// RecordBatch inserts a batch of packets under one lock acquisition.
func (r *Recorder[S]) RecordBatch(ps []SpreadPacket) {
	if len(ps) == 0 {
		return
	}
	r.l.mu.Lock()
	r.l.apply(ps)
	r.l.mu.Unlock()
}

// Close hands the recorder's remaining delta to a shared lane and
// unregisters its lane. The recorder must not be used afterwards.
func (r *Recorder[S]) Close() {
	p := r.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if i := slices.Index(p.lanes, r.l); i >= 0 {
		p.lanes = slices.Delete(p.lanes, i, i+1)
	}
	if !r.l.dirty.Load() {
		return
	}
	// Lock order: p.mu, then lanes. Writers hold one lane at a time.
	dst := p.shared[0]
	r.l.mu.Lock()
	dst.mu.Lock()
	mustMerge(dst.d, r.l.d)
	dst.markDirty()
	dst.mu.Unlock()
	r.l.mu.Unlock()
}
