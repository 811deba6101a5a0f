//go:build race

package countmin

// raceEnabled: under the race detector sync.Pool drops a share of the
// buffers put back, by design, so TestMarshalExactSize checks only the
// exact size there, not the allocation count.
const raceEnabled = true
