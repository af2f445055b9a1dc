package main

import (
	"context"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopStallDelaysLaterRequests sends a stream over one connection
// to a handler that stalls once. Latency measured from each request's due
// time must show the stall on every request scheduled behind it, even
// though each of those requests is fast once it is actually sent — the
// queueing a closed-loop or send-time measurement would hide.
func TestOpenLoopStallDelaysLaterRequests(t *testing.T) {
	const (
		n        = 20
		interval = 2 * time.Millisecond
		stall    = 150 * time.Millisecond
		stalled  = 3 // index of the request whose handler stalls
	)
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1)-1 == stalled {
			time.Sleep(stall)
		}
		io.WriteString(w, "ok")
	}))
	defer srv.Close()
	client := srv.Client()
	client.Transport.(*http.Transport).MaxConnsPerHost = 1

	res := openLoop(context.Background(), uniformSchedule(n, interval), 1, func(i int) (int, []byte, error) {
		resp, err := client.Post(srv.URL, "text/plain", strings.NewReader("x"))
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp.StatusCode, body, err
	})

	for i, r := range res {
		if r.err != nil || r.status != http.StatusOK {
			t.Fatalf("request %d: status %d, err %v", i, r.status, r.err)
		}
		if r.start.Before(r.due) {
			t.Fatalf("request %d sent %v before it was due", i, r.due.Sub(r.start))
		}
	}
	// Requests due before the stall ends wait behind it: each one's latency
	// from its due time covers the rest of the stall, and each was sent late.
	stallEnd := res[stalled].done
	behind := 0
	for i := stalled + 1; i < n; i++ {
		r := res[i]
		if !r.due.Before(stallEnd) {
			continue
		}
		behind++
		if lat := r.done.Sub(r.due); lat < stallEnd.Sub(r.due) {
			t.Errorf("request %d: latency %v from due time hides the %v it waited behind the stall", i, lat, stallEnd.Sub(r.due))
		}
		if lag := r.start.Sub(r.due); lag < stallEnd.Sub(r.due) {
			t.Errorf("request %d: lag %v, want at least %v", i, lag, stallEnd.Sub(r.due))
		}
		if send := r.done.Sub(r.start); send >= stall/2 {
			t.Errorf("request %d took %v once sent; the handler only stalled request %d", i, send, stalled)
		}
	}
	if behind < 10 {
		t.Fatalf("only %d requests were scheduled behind the stall; the test lost its point", behind)
	}
	// Requests before the stall are unaffected.
	for i := 0; i < stalled; i++ {
		if lat := res[i].done.Sub(res[i].due); lat >= stall/2 {
			t.Errorf("request %d before the stall took %v", i, lat)
		}
	}
}

// TestOpenLoopHonoursContext stops sending once the context ends.
func TestOpenLoopHonoursContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var sentN atomic.Int64
	res := openLoop(ctx, uniformSchedule(5, time.Hour), 2, func(int) (int, []byte, error) {
		sentN.Add(1)
		return 200, nil, nil
	})
	// Request 0 is due immediately and may go out; nothing due later does.
	if sentN.Load() > 2 || len(res) != 5 {
		t.Fatalf("sent %d requests after cancellation", sentN.Load())
	}
}

// TestPoissonSchedule checks the service's arrival schedule: seeded, in
// order, and at the asked mean rate.
func TestPoissonSchedule(t *testing.T) {
	const n, rate = 20000, 300.0
	a := poissonSchedule(rand.New(rand.NewSource(1)), n, rate)
	b := poissonSchedule(rand.New(rand.NewSource(1)), n, rate)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("due time %d: %v then %v from the same seed", i, a[i], b[i])
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("due time %d (%v) before %d (%v)", i, a[i], i-1, a[i-1])
		}
	}
	if got := float64(n-1) / a[n-1].Seconds(); math.Abs(got-rate) > 0.05*rate {
		t.Errorf("mean rate %.1f/s, want %.0f/s", got, rate)
	}
}
