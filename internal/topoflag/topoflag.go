// Package topoflag parses the topology flags the cluster commands share:
// "-widths" and "-weights" id:value lists, and "-shard i/n".
package topoflag

import (
	"fmt"
	"strconv"
	"strings"
)

// Pairs parses "0:1638,1:3276" into an id→value map, naming the flag's
// values what ("width", "weight") in errors. Values must be positive and
// ids unique; "" yields a nil map.
func Pairs(s, what string) (map[int]int, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[int]int)
	for _, part := range strings.Split(s, ",") {
		id, val, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("bad -%ss entry %q", what, part)
		}
		n, err := strconv.Atoi(id)
		if err != nil {
			return nil, fmt.Errorf("bad id %q: %w", id, err)
		}
		v, err := strconv.Atoi(val)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad %s %q for id %d", what, val, n)
		}
		if _, dup := out[n]; dup {
			return nil, fmt.Errorf("duplicate id %d", n)
		}
		out[n] = v
	}
	return out, nil
}

// Shard parses "i/n" into (index, count); "" means unsharded (0, 1).
func Shard(s string) (int, int, error) {
	if s == "" {
		return 0, 1, nil
	}
	is, ns, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf(`bad -shard %q (want "i/n", e.g. 0/2)`, s)
	}
	i, err := strconv.Atoi(is)
	if err != nil {
		return 0, 0, fmt.Errorf("bad shard index %q: %w", is, err)
	}
	n, err := strconv.Atoi(ns)
	if err != nil {
		return 0, 0, fmt.Errorf("bad shard count %q: %w", ns, err)
	}
	if n < 1 || i < 0 || i >= n {
		return 0, 0, fmt.Errorf("shard %d/%d out of range", i, n)
	}
	return i, n, nil
}
