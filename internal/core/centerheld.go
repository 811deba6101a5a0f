package core

// CenterHeld is the sketch memory a center holds, by role, each a sum of
// Sketch.HeapBytes. A sketch two roles share counts once, under the first
// role listed that holds it.
type CenterHeld struct {
	Uploads int // the stored single-epoch cells
	Open    int // open partials' width groups
	Frozen  int // frozen partials
	Prefix  int // the live window prefix
	Rounds  int // round memos: the window and its per-width sketches
	Sent    int // the additive design's recorded pushes
}

// HeldBytes reports the sketch memory the center holds, by role.
func (c *Center[S]) HeldBytes() CenterHeld {
	c.mu.Lock()
	defer c.mu.Unlock()
	seen := map[any]bool{}
	add := func(n *int, sk S) {
		if !IsNil(sk) && !seen[sk] {
			seen[sk] = true
			*n += sk.HeapBytes()
		}
	}
	var h CenterHeld
	for _, per := range c.uploads {
		for _, sk := range per {
			add(&h.Uploads, sk)
		}
	}
	for _, j := range c.part {
		for _, g := range j.groups {
			add(&h.Open, g)
		}
		add(&h.Frozen, j.sk)
	}
	add(&h.Prefix, c.pre)
	for _, m := range c.rounds {
		add(&h.Rounds, m.joined)
		for _, sk := range m.byWidth {
			add(&h.Rounds, sk)
		}
	}
	for _, sent := range []map[int]map[int64]S{c.sentAgg, c.sentEnh} {
		for _, per := range sent {
			for _, sk := range per {
				add(&h.Sent, sk)
			}
		}
	}
	return h
}
