// Command wrsn-loadgen replays an open-loop request stream against a
// running wrsnd, injecting client-side faults — malformed bodies,
// oversized problems, unknown solvers, slow-loris connections — and
// publishes a machine-readable latency/throughput artifact in the
// BENCH_*.json style: p50/p90/p99 latency, plans per second, shed rate,
// status and error-class counts, plus the daemon's own /statz snapshot.
//
// Usage:
//
//	wrsn-loadgen -addr http://127.0.0.1:8347 -requests 200 -rate 100
//	wrsn-loadgen -addr $URL -malformed-frac 0.1 -slowloris-frac 0.05 -out LOAD.json
//	wrsn-loadgen -addr $URL -solvers rfh,idb -problems 8 -deadline-ms 2000
//
// The stream is open-loop: requests launch on a fixed schedule derived
// from -rate regardless of how fast the daemon answers, so a slow daemon
// accumulates in-flight pressure exactly like real traffic (bounded by
// -max-open). Everything is deterministic from -seed: the same seed
// replays the same problems, the same fault schedule, the same request
// order.
//
// Exit code 0 means the run completed and the artifact was written; the
// daemon's error responses (429, 500, ...) are data, not failures.
// -require-2xx-frac optionally turns a low success rate into exit 1 for
// CI gates.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"wrsn/internal/daemon"
	"wrsn/internal/engine"
	"wrsn/internal/geom"
	"wrsn/internal/model"
	"wrsn/internal/placement"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := runCtx(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "wrsn-loadgen:", err)
		os.Exit(1)
	}
}

// request kinds in the injected stream.
const (
	kindPlan      = "plan"
	kindMalformed = "malformed"
	kindOversize  = "oversize"
	kindBadSolver = "bad_solver"
	kindSlowloris = "slowloris"
)

// Artifact is the machine-readable run record.
type Artifact struct {
	Tool        string           `json:"tool"`
	Version     int              `json:"version"`
	Target      string           `json:"target"`
	Seed        int64            `json:"seed"`
	Requests    int              `json:"requests"`
	RatePerSec  float64          `json:"rate_per_sec"`
	WallSeconds float64          `json:"wall_seconds"`
	Sent        map[string]int64 `json:"sent"`
	Status      map[string]int64 `json:"status"`
	Classes     map[string]int64 `json:"classes"`
	LatencyMS   LatencySummary   `json:"latency_ms"`
	PlansPerSec float64          `json:"plans_per_sec"`
	ShedRate    float64          `json:"shed_rate"`
	HitRate     float64          `json:"cache_hit_rate"`
	Statz       *daemon.Stats    `json:"statz,omitempty"`
}

// LatencySummary is the quantile block over answered requests.
type LatencySummary struct {
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
	Count int     `json:"count"`
}

func summarize(lat []float64) LatencySummary {
	if len(lat) == 0 {
		return LatencySummary{}
	}
	sort.Float64s(lat)
	q := func(p float64) float64 {
		i := int(p * float64(len(lat)-1))
		return lat[i]
	}
	return LatencySummary{
		P50:   q(0.50),
		P90:   q(0.90),
		P99:   q(0.99),
		Max:   lat[len(lat)-1],
		Count: len(lat),
	}
}

// splitmix64 is the per-index fault/problem draw — the same generator
// the engine's deterministic machinery uses, so a seed fully determines
// the stream.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func runCtx(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("wrsn-loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", "", "target daemon base URL (e.g. http://127.0.0.1:8347); required")
		requests    = fs.Int("requests", 100, "total requests to send")
		rate        = fs.Float64("rate", 50, "open-loop launch rate in requests/sec (0 = as fast as -max-open allows)")
		maxOpen     = fs.Int("max-open", 64, "bound on concurrently open requests (open-loop pressure cap)")
		seed        = fs.Int64("seed", 1, "stream seed: problems, fault schedule and request order are pure functions of it")
		deadlineMS  = fs.Int64("deadline-ms", 5000, "per-request deadline_ms (0 = server default)")
		solvers     = fs.String("solvers", "rfh", "comma-separated solver names to round-robin over")
		problems    = fs.Int("problems", 4, "distinct problem instances (repeats exercise the plan cache)")
		posts       = fs.Int("posts", 6, "posts per generated deployment problem")
		nodes       = fs.Int("nodes", 10, "node budget per generated deployment problem")
		placeFrac   = fs.Float64("placement-frac", 0, "fraction of plan requests that carry a charger-placement instance (solved with greedy)")
		malfFrac    = fs.Float64("malformed-frac", 0, "fraction of requests sent with an unparseable body")
		overFrac    = fs.Float64("oversize-frac", 0, "fraction of requests sent with an oversized body")
		overBytes   = fs.Int("oversize-bytes", 2<<20, "payload size of oversized requests")
		badFrac     = fs.Float64("bad-solver-frac", 0, "fraction of requests naming an unregistered solver")
		slowFrac    = fs.Float64("slowloris-frac", 0, "fraction of requests sent as slow-loris connections (partial body, then stall)")
		slowHold    = fs.Duration("slowloris-hold", 300*time.Millisecond, "how long a slow-loris connection stalls before hanging up")
		out         = fs.String("out", "", "write the run artifact (JSON) to this file")
		require2xx  = fs.Float64("require-2xx-frac", 0, "exit 1 unless at least this fraction of plan requests succeeded (CI gate)")
		statzScrape = fs.Bool("statz", true, "append the daemon's /statz snapshot to the artifact")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *addr == "" {
		return fmt.Errorf("-addr is required (the target daemon's base URL)")
	}
	base := strings.TrimSuffix(*addr, "/")
	target, err := url.Parse(base)
	if err != nil || target.Host == "" {
		return fmt.Errorf("-addr %q is not a URL (want e.g. http://127.0.0.1:8347)", *addr)
	}
	if *requests < 1 {
		return fmt.Errorf("-requests must be >= 1, got %d", *requests)
	}
	solverNames := strings.Split(*solvers, ",")

	// Pre-generate the problem pool: the stream cycles over it, so cache
	// hits appear as soon as a problem repeats.
	rng := rand.New(rand.NewSource(*seed))
	deployBodies := make([][]byte, *problems)
	for i := range deployBodies {
		p, err := model.GenerateProblem(rng, model.GenSpec{
			Field: geom.Field{Width: 200, Height: 200},
			Posts: *posts,
			Nodes: *nodes,
		})
		if err != nil {
			return fmt.Errorf("generating problem %d: %w", i, err)
		}
		sv := solverNames[i%len(solverNames)]
		deployBodies[i], err = json.Marshal(daemon.PlanRequest{Solver: sv, Problem: p, DeadlineMS: *deadlineMS})
		if err != nil {
			return fmt.Errorf("encoding problem %d: %w", i, err)
		}
	}
	var placeBodies [][]byte
	if *placeFrac > 0 {
		placeBodies = make([][]byte, *problems)
		for i := range placeBodies {
			inst, err := placement.Generate(rng, placement.GenSpec{
				Field:      geom.Field{Width: 100, Height: 100},
				Posts:      *posts,
				Sites:      placement.DefaultSiteSpec(),
				DemandMean: 1.5,
			})
			if err != nil {
				return fmt.Errorf("generating placement %d: %w", i, err)
			}
			placeBodies[i], err = json.Marshal(daemon.PlanRequest{Solver: "greedy", Placement: inst, DeadlineMS: *deadlineMS})
			if err != nil {
				return fmt.Errorf("encoding placement %d: %w", i, err)
			}
		}
	}
	oversize, err := json.Marshal(map[string]string{"pad": strings.Repeat("x", *overBytes)})
	if err != nil {
		return err
	}
	badSolver, err := json.Marshal(daemon.PlanRequest{Solver: "loadgen-no-such-solver", Problem: mustProblem(rng, *posts, *nodes), DeadlineMS: *deadlineMS})
	if err != nil {
		return err
	}

	// kindOf deterministically assigns each request index its fault (or
	// plan) kind and payload.
	kindOf := func(i int) (string, []byte) {
		draw := float64(splitmix64(uint64(*seed)^uint64(i)<<1)%1_000_000) / 1_000_000
		switch {
		case draw < *malfFrac:
			return kindMalformed, []byte(`{"solver": "rfh", "problem": {`)
		case draw < *malfFrac+*overFrac:
			return kindOversize, oversize
		case draw < *malfFrac+*overFrac+*badFrac:
			return kindBadSolver, badSolver
		case draw < *malfFrac+*overFrac+*badFrac+*slowFrac:
			return kindSlowloris, nil
		case placeBodies != nil && draw < *malfFrac+*overFrac+*badFrac+*slowFrac+*placeFrac:
			return kindPlan, placeBodies[i%len(placeBodies)]
		default:
			return kindPlan, deployBodies[i%len(deployBodies)]
		}
	}

	client := &http.Client{Timeout: 2*time.Duration(*deadlineMS)*time.Millisecond + 30*time.Second}
	defer client.CloseIdleConnections()

	var (
		mu        sync.Mutex
		latencies []float64
		sent      = map[string]int64{}
		status    = map[string]int64{}
		classes   = map[string]int64{}
	)
	var ok2xx, shed atomic.Int64
	bump := func(m map[string]int64, k string) {
		mu.Lock()
		m[k]++
		mu.Unlock()
	}

	do := func(i int) {
		kind, body := kindOf(i)
		bump(sent, kind)
		if kind == kindSlowloris {
			slowloris(target.Host, *slowHold)
			bump(status, "slowloris_hangup")
			return
		}
		t0 := time.Now()
		resp, err := client.Post(base+"/v1/plan", "application/json", bytes.NewReader(body))
		if err != nil {
			bump(status, "transport_error")
			return
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		ms := float64(time.Since(t0)) / float64(time.Millisecond)
		mu.Lock()
		latencies = append(latencies, ms)
		mu.Unlock()
		bump(status, fmt.Sprintf("%dxx", resp.StatusCode/100))
		if resp.StatusCode == http.StatusOK {
			ok2xx.Add(1)
			return
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			shed.Add(1)
		}
		var eb daemon.ErrorBody
		if json.Unmarshal(data, &eb) == nil && eb.Error.Class != "" {
			bump(classes, eb.Error.Class)
		} else {
			bump(classes, "unstructured")
		}
	}

	// The open-loop scheduler: launch every interval regardless of
	// completions, bounded by -max-open slots.
	interval := time.Duration(0)
	if *rate > 0 {
		interval = time.Duration(float64(time.Second) / *rate)
	}
	slots := make(chan struct{}, max(1, *maxOpen))
	var wg sync.WaitGroup
	start := time.Now()
	var launched int
loop:
	for i := 0; i < *requests; i++ {
		select {
		case <-ctx.Done():
			break loop
		case slots <- struct{}{}:
		}
		launched++
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-slots }()
			do(i)
		}(i)
		if interval > 0 {
			timer := time.NewTimer(interval)
			select {
			case <-ctx.Done():
				timer.Stop()
				break loop
			case <-timer.C:
			}
		}
	}
	wg.Wait()
	wall := time.Since(start)

	art := Artifact{
		Tool:        "wrsn-loadgen",
		Version:     1,
		Target:      base,
		Seed:        *seed,
		Requests:    launched,
		RatePerSec:  *rate,
		WallSeconds: wall.Seconds(),
		Sent:        sent,
		Status:      status,
		Classes:     classes,
		LatencyMS:   summarize(latencies),
		PlansPerSec: float64(ok2xx.Load()) / wall.Seconds(),
	}
	if launched > 0 {
		art.ShedRate = float64(shed.Load()) / float64(launched)
	}
	if *statzScrape {
		if st, err := scrapeStatz(client, base); err == nil {
			art.Statz = st
			if st.CacheHits+st.CacheMisses > 0 {
				art.HitRate = st.CacheHitRate
			}
		} else {
			fmt.Fprintf(stderr, "wrsn-loadgen: statz scrape failed: %v\n", err)
		}
	}

	enc, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	if *out != "" {
		if err := os.MkdirAll(filepath.Dir(*out), 0o755); err != nil {
			return err
		}
		err := engine.WriteFileAtomic(*out, func(w io.Writer) error {
			_, err := fmt.Fprintf(w, "%s\n", enc)
			return err
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrsn-loadgen: artifact written to %s\n", *out)
	}
	fmt.Fprintf(stdout, "%s\n", enc)

	if ctx.Err() != nil {
		return fmt.Errorf("interrupted after %d/%d requests", launched, *requests)
	}
	if *require2xx > 0 {
		plans := sent[kindPlan]
		if plans == 0 {
			return fmt.Errorf("-require-2xx-frac set but the stream contained no plan requests")
		}
		frac := float64(ok2xx.Load()) / float64(plans)
		if frac < *require2xx {
			return fmt.Errorf("success rate %.3f below required %.3f (%d/%d plan requests succeeded)",
				frac, *require2xx, ok2xx.Load(), plans)
		}
	}
	return nil
}

func mustProblem(rng *rand.Rand, posts, nodes int) *model.Problem {
	p, err := model.GenerateProblem(rng, model.GenSpec{
		Field: geom.Field{Width: 200, Height: 200},
		Posts: posts,
		Nodes: nodes,
	})
	if err != nil {
		panic(err)
	}
	return p
}

// slowloris opens a raw connection, sends headers promising a large
// body, dribbles a few bytes, stalls for hold, and hangs up — the
// classic read-side resource attack the daemon's ReadTimeout must bound.
func slowloris(host string, hold time.Duration) {
	conn, err := net.DialTimeout("tcp", host, 5*time.Second)
	if err != nil {
		return
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/plan HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: 1000000\r\n\r\n", host)
	io.WriteString(conn, `{"solver": "rfh"`)
	// Stall: the daemon's ReadTimeout, not our patience, decides when
	// this connection dies. Bound our side anyway.
	conn.SetReadDeadline(time.Now().Add(hold))
	buf := make([]byte, 256)
	conn.Read(buf)
}

func scrapeStatz(client *http.Client, base string) (*daemon.Stats, error) {
	resp, err := client.Get(base + "/statz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st daemon.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}
