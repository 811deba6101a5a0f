package transport

import (
	"testing"
	"time"

	"repro/internal/faultnet"
)

// Redial's retry pacing is a liveness property the chaos engine leans on:
// a fleet of points knocked out together must come back spread over
// jittered exponential backoff, not in lockstep, and a misconfigured
// backoff that collapses to zero would turn every outage into a dial
// storm. These tests pin the exact bounds by replacing the sleep hook
// with a recorder — no real time passes.

// redialRecorder dials a point over faultnet, swaps its sleep hook for a
// recorder, and returns both plus the link for fault scripting.
func redialRecorder(t *testing.T, cfg func(*PointConfig)) (*PointClient, *faultnet.Link, *[]time.Duration) {
	t.Helper()
	fnet := faultnet.New(fmSeed)
	srv, err := ServeCenter(CenterConfig{
		Listener: fnet.Listen(), Kind: KindSpread, WindowN: fmN,
		Widths: map[int]int{0: fmW}, M: fmM, D: fmD, Seed: fmSeed,
		Logf: quietLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	link := fnet.Link()
	pcfg := PointConfig{
		Addr: "faultnet", Point: 0, Kind: KindSpread,
		W: fmW, M: fmM, D: fmD, Seed: fmSeed, Dial: link.Dial,
	}
	if cfg != nil {
		cfg(&pcfg)
	}
	pc, err := DialPoint(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pc.Close() })
	delays := &[]time.Duration{}
	pc.up.sleep = func(d time.Duration) { *delays = append(*delays, d) }
	return pc, link, delays
}

// TestRedialBackoffBounds pins the retry schedule: every delay falls in
// the full-jitter band [backoff/2, backoff], the backoff doubles between
// attempts, and RedialBackoffMax caps the doubling.
func TestRedialBackoffBounds(t *testing.T) {
	const (
		attempts = 8
		base     = 100 * time.Millisecond
		cap      = 400 * time.Millisecond
	)
	pc, link, delays := redialRecorder(t, func(cfg *PointConfig) {
		cfg.RedialAttempts = attempts
		cfg.RedialBackoff = base
		cfg.RedialBackoffMax = cap
	})
	link.Cut()
	link.FailDials(attempts)
	if err := pc.Redial(); err == nil {
		t.Fatal("Redial must fail when every dial fails")
	}
	// The first attempt is immediate; each later attempt sleeps once.
	if len(*delays) != attempts-1 {
		t.Fatalf("recorded %d delays, want %d", len(*delays), attempts-1)
	}
	backoff := base
	for i, d := range *delays {
		if lo, hi := backoff/2, backoff; d < lo || d > hi {
			t.Errorf("delay %d = %v, want within full-jitter band [%v, %v]", i, d, lo, hi)
		}
		if backoff *= 2; backoff > cap {
			backoff = cap
		}
	}
	// By the third delay the schedule has hit the cap; nothing may
	// exceed it afterwards.
	for i, d := range (*delays)[2:] {
		if d > cap {
			t.Errorf("capped delay %d = %v exceeds RedialBackoffMax %v", i+2, d, cap)
		}
	}
	// The link soaked up exactly the failed attempts, then nothing: a
	// failed Redial must not keep dialing in the background.
	if got := link.Dials(); got != 1 {
		t.Fatalf("link dials = %d, want 1 (initial connect only; retries all failed)", got)
	}
}

// TestRedialBackoffDefaults pins the zero-config schedule documented on
// PointConfig: 3 attempts, 200ms initial backoff, 2s cap.
func TestRedialBackoffDefaults(t *testing.T) {
	pc, link, delays := redialRecorder(t, nil)
	link.Cut()
	link.FailDials(3)
	if err := pc.Redial(); err == nil {
		t.Fatal("Redial must fail when every dial fails")
	}
	if len(*delays) != 2 {
		t.Fatalf("recorded %d delays, want 2 (default 3 attempts)", len(*delays))
	}
	if d := (*delays)[0]; d < 100*time.Millisecond || d > 200*time.Millisecond {
		t.Errorf("first default delay = %v, want within [100ms, 200ms]", d)
	}
	if d := (*delays)[1]; d < 200*time.Millisecond || d > 400*time.Millisecond {
		t.Errorf("second default delay = %v, want within [200ms, 400ms]", d)
	}
}

// TestRedialSucceedsMidSchedule proves a recovery part-way through the
// schedule stops the retry loop immediately — no further sleeps after
// the attempt that connects.
func TestRedialSucceedsMidSchedule(t *testing.T) {
	pc, link, delays := redialRecorder(t, func(cfg *PointConfig) {
		cfg.RedialAttempts = 8
		cfg.RedialBackoff = 50 * time.Millisecond
	})
	link.Cut()
	link.FailDials(2)
	if err := pc.Redial(); err != nil {
		t.Fatalf("Redial must succeed on the third attempt: %v", err)
	}
	if len(*delays) != 2 {
		t.Fatalf("recorded %d delays, want 2 (two failures, then success)", len(*delays))
	}
	if got := link.Dials(); got != 2 {
		t.Fatalf("link dials = %d, want 2 (initial connect + successful retry)", got)
	}
}

// TestEffectiveDialTimeout pins the raw-TCP dial bound: 10s unless the
// config sets a positive override.
func TestEffectiveDialTimeout(t *testing.T) {
	if got := effectiveDialTimeout(0); got != 10*time.Second {
		t.Errorf("effectiveDialTimeout(0) = %v, want 10s", got)
	}
	if got := effectiveDialTimeout(-time.Second); got != 10*time.Second {
		t.Errorf("effectiveDialTimeout(-1s) = %v, want 10s", got)
	}
	if got := effectiveDialTimeout(3 * time.Second); got != 3*time.Second {
		t.Errorf("effectiveDialTimeout(3s) = %v, want 3s", got)
	}
}
