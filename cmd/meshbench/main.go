// Command meshbench measures the sharded mesh's router throughput: a
// sweep across pool counts with and without moving-target rotation.
// The seeded mesh campaigns live in cmd/campaign (-preset mesh).
//
//	go run ./cmd/meshbench                      # throughput sweep
//	go run ./cmd/meshbench -rotate-every 8      # sweep under rotation
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"nvariant/internal/fleet"
	"nvariant/internal/httpd"
	"nvariant/internal/mesh"
	"nvariant/internal/obs"
	"nvariant/internal/webbench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "meshbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		seed        = flag.Int64("seed", 1, "mesh seed")
		requests    = flag.Int("requests", 40, "requests per session")
		poolsFlag   = flag.String("pools", "1,2,4", "comma-separated pool counts to sweep")
		groups      = flag.Int("groups", 2, "groups per pool")
		rotateEvery = flag.Uint64("rotate-every", 0, "rotate every N dispatches (0 = off)")
		policyFlag  = flag.String("policy", "hash", "routing policy: hash or affinity")
		sessions    = flag.Int("sessions", 8, "concurrent sticky sessions per run")
		opsAddr     = flag.String("ops", "", "serve /metrics and the merged /audit tail on this host address while running")
	)
	flag.Parse()

	policy, err := parsePolicy(*policyFlag)
	if err != nil {
		return err
	}
	pools, err := parseInts(*poolsFlag)
	if err != nil {
		return fmt.Errorf("-pools: %w", err)
	}
	return sweep(pools, policy, *groups, *sessions, *requests, *rotateEvery, *seed, *opsAddr)
}

// sweep measures router dispatch throughput and latency per pool
// count, with optional rotation churning underneath the load.
func sweep(pools []int, policy mesh.RouterPolicy, groups, sessions, perSession int, rotateEvery uint64, seed int64, opsAddr string) error {
	var reg *obs.Registry
	if opsAddr != "" {
		reg = obs.NewRegistry()
		srv, err := obs.StartServer(opsAddr, reg, nil)
		if err != nil {
			return fmt.Errorf("-ops: %w", err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "meshbench: ops server on http://%s\n", srv.Addr)
	}
	rotating := "off"
	if rotateEvery > 0 {
		rotating = fmt.Sprintf("every %d dispatches", rotateEvery)
	}
	fmt.Printf("mesh sweep: policy=%s groups/pool=%d sessions=%d requests/session=%d rotation=%s\n",
		policy, groups, sessions, perSession, rotating)
	fmt.Printf("%-6s %10s %10s %12s %12s %10s %10s\n",
		"pools", "req/s", "errors", "p50", "p99", "rotations", "shed")

	for _, p := range pools {
		m, err := mesh.New(mesh.Options{
			Pools:       p,
			Policy:      policy,
			RotateEvery: rotateEvery,
			Seed:        seed,
			Obs:         reg,
			Fleet:       fleet.Options{Groups: groups},
		})
		if err != nil {
			return fmt.Errorf("pools=%d: %w", p, err)
		}
		req := httpd.AppendRequest(nil, "/index.html")
		var (
			wg      sync.WaitGroup
			mu      sync.Mutex
			lats    []time.Duration
			errorsN int
		)
		start := time.Now()
		for s := 0; s < sessions; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				sess := m.Session(fmt.Sprintf("bench-%d", s))
				local := make([]time.Duration, 0, perSession)
				fails := 0
				for i := 0; i < perSession; i++ {
					t0 := time.Now()
					code, _, err := sess.Fetch(req)
					if err != nil || code != 200 {
						fails++
						continue
					}
					local = append(local, time.Since(t0))
				}
				mu.Lock()
				lats = append(lats, local...)
				errorsN += fails
				mu.Unlock()
			}(s)
		}
		wg.Wait()
		elapsed := time.Since(start)
		stats, err := m.Stop()
		if err != nil {
			return fmt.Errorf("pools=%d stop: %w", p, err)
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		rate := float64(len(lats)) / elapsed.Seconds()
		fmt.Printf("%-6d %10.0f %10d %12v %12v %10d %10d\n",
			p, rate, errorsN,
			webbench.Percentile(lats, 0.50).Round(time.Microsecond),
			webbench.Percentile(lats, 0.99).Round(time.Microsecond),
			stats.Rotations, stats.Shed)
	}
	return nil
}

func parsePolicy(s string) (mesh.RouterPolicy, error) {
	switch s {
	case "hash":
		return mesh.HashRouting, nil
	case "affinity":
		return mesh.AffinityRouting, nil
	default:
		return 0, fmt.Errorf("unknown policy %q (hash, affinity)", s)
	}
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, tok := range strings.Split(s, ",") {
		if tok = strings.TrimSpace(tok); tok == "" {
			continue
		}
		v, err := strconv.Atoi(tok)
		if err != nil {
			return nil, fmt.Errorf("bad int %q", tok)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}
