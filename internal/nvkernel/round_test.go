package nvkernel

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"nvariant/internal/simnet"
	"nvariant/internal/sys"
	"nvariant/internal/testutil"
)

// stallProgs builds n variants that make one rendezvous together, then
// call time(2) again — except variant stalled, which blocks on release
// instead of arriving. The survivors of a quorum group make three
// more rounds and exit.
func stallProgs(n, stalled int, release <-chan struct{}) []sys.Program {
	return same(n, "stall", func(ctx *sys.Context) error {
		if _, err := ctx.Time(); err != nil {
			return err
		}
		if ctx.Variant == stalled {
			<-release
		}
		for i := 0; i < 3; i++ {
			if _, err := ctx.Time(); err != nil {
				return err
			}
		}
		return ctx.Exit(0)
	})
}

func TestStallDetectedWithinTwoTimeouts(t *testing.T) {
	// The watchdog flags a partly gathered round that made no progress
	// since its previous firing: never sooner than Timeout after the
	// lane's last rendezvous, and before 2×Timeout. The last rendezvous
	// completes just after Run starts, so both bounds are measured from
	// there; slack absorbs a late timer on a loaded host.
	const timeout, slack = 50 * time.Millisecond, 150 * time.Millisecond
	check := func(t *testing.T, start, detected time.Time) {
		t.Helper()
		if d := detected.Sub(start); d < timeout || d > 2*timeout+slack {
			t.Errorf("stall detected after %v, want within [%v, %v]", d, timeout, 2*timeout+slack)
		}
	}

	t.Run("unanimous-timeout", func(t *testing.T) {
		release := make(chan struct{})
		defer close(release)
		start := time.Now()
		res, err := Run(newWorld(t), simnet.New(0), stallProgs(2, 1, release), WithTimeout(timeout))
		if err != nil {
			t.Fatal(err)
		}
		a := res.Alarm
		if a == nil || a.Reason != ReasonTimeout || a.Variant != 1 || a.Seq != 1 || a.Syscall != "(none)" {
			t.Fatalf("alarm = %+v, want timeout on variant 1 at seq 1", a)
		}
		if want := "variant 1 did not reach rendezvous within 50ms"; a.Detail != want {
			t.Errorf("detail = %q, want %q", a.Detail, want)
		}
		check(t, start, a.At)
	})

	t.Run("quorum-eviction", func(t *testing.T) {
		release := make(chan struct{})
		var evictedAt time.Time
		start := time.Now()
		res := mustRun(t, newWorld(t), stallProgs(3, 2, release), WithQuorum(2), WithTimeout(timeout),
			WithEvictionHook(func(Eviction) {
				evictedAt = time.Now()
				close(release) // the evicted variant's next syscall is answered Killed
			}))
		if !res.Clean || res.Alarm != nil {
			t.Fatalf("clean=%v alarm=%+v", res.Clean, res.Alarm)
		}
		want := Eviction{Variant: 2, Worker: 0, Kind: FaultStall, Seq: 1, VTime: 1, Live: 2,
			Detail: "variant 2 did not reach rendezvous within 50ms"}
		if len(res.Evictions) != 1 || res.Evictions[0] != want {
			t.Fatalf("evictions = %+v, want [%+v]", res.Evictions, want)
		}
		check(t, start, evictedAt)
		if res.Rendezvous != 5 {
			t.Errorf("rendezvous = %d, want 5 (one full round, three survivor rounds, exit)", res.Rendezvous)
		}
	})
}

func TestStallEvictionHandsOffBlockingRound(t *testing.T) {
	// N=3, K=1, two lanes. In lane 0 variant 2 stalls while variants 0
	// and 1 wait in accept; the watchdog evicts it, and the round it
	// completes goes to a parked arrival, which blocks in accept — no
	// client ever dials. Only then does lane 1's variant 1 stall. Had
	// the watchdog run the round itself, it would be stuck in accept
	// and lane 1's stall would go unnoticed.
	const port = 9311
	net := simnet.New(0)
	release := make(chan struct{})
	firstEvicted, bothEvicted := make(chan struct{}), make(chan struct{})
	var mu sync.Mutex
	evictions := 0
	onEvict := func(Eviction) {
		mu.Lock()
		defer mu.Unlock()
		evictions++
		switch evictions {
		case 1:
			close(firstEvicted)
		case 2:
			close(bothEvicted)
		}
	}

	lfd := make([]int, 3)
	progs := make([]sys.Program, 3)
	for i := range progs {
		serve := func(ctx *sys.Context) error {
			if _, err := ctx.Accept(lfd[i]); err == nil {
				return errors.New("accepted a connection nobody dialed")
			}
			return ctx.Exit(0)
		}
		progs[i] = sys.WorkerProgramFunc{
			ProgramFunc: sys.ProgramFunc{ProgName: "acceptor", Fn: func(ctx *sys.Context) error {
				fd, err := ctx.Listen(port)
				if err != nil {
					return err
				}
				lfd[i] = fd
				if _, err := ctx.Prefork(2); err != nil {
					return err
				}
				if i == 2 {
					<-release
				}
				return serve(ctx)
			}},
			WorkerFn: func(ctx *sys.Context, worker int) error {
				<-firstEvicted
				if i == 1 {
					<-release
				}
				return serve(ctx)
			},
		}
	}

	done := make(chan *Result, 1)
	go func() {
		res, err := Run(newWorld(t), net, progs, WithQuorum(1), WithTimeout(30*time.Millisecond), WithEvictionHook(onEvict))
		if err != nil {
			t.Errorf("Run: %v", err)
		}
		done <- res
	}()
	select {
	case <-bothEvicted:
	case <-time.After(5 * time.Second):
		t.Fatal("second lane's stall not detected while the first lane's handed-off round blocks in accept")
	}
	select {
	case res := <-done:
		t.Fatalf("group finished while both lanes should block in accept: %+v", res)
	default:
	}

	close(release)
	if err := net.ShutdownPort(port); err != nil {
		t.Fatal(err)
	}
	res := <-done
	if !res.Clean || res.Alarm != nil {
		t.Fatalf("clean=%v alarm=%+v", res.Clean, res.Alarm)
	}
	if len(res.Evictions) != 2 {
		t.Fatalf("evictions = %+v, want two", res.Evictions)
	}
	first, second := res.Evictions[0], res.Evictions[1]
	if first.Variant != 2 || first.Worker != 0 || first.Kind != FaultStall || first.Live != 2 {
		t.Errorf("first eviction = %+v, want variant 2 of lane 0, stall, 2 live", first)
	}
	if second.Variant != 1 || second.Worker != 1 || second.Kind != FaultStall || second.Live != 1 {
		t.Errorf("second eviction = %+v, want variant 1 of lane 1, stall, 1 live", second)
	}
}

func TestDepartureWhileSiblingsParked(t *testing.T) {
	// Variant 2 returns an error while variants 0 and 1 are parked at
	// the second rendezvous: its departure completes the round, and
	// its own goroutine settles the fault.
	run := func(t *testing.T, opts ...Option) *Result {
		t.Helper()
		var parked sync.WaitGroup
		parked.Add(2)
		// The hook sees each sibling's call just before it arrives.
		seen := make([]int, 2)
		var mu sync.Mutex
		hook := testHook{stall: func(_, variant int, num sys.Num) time.Duration {
			if variant < 2 && num == sys.Time {
				mu.Lock()
				seen[variant]++
				if seen[variant] == 2 {
					parked.Done()
				}
				mu.Unlock()
			}
			return 0
		}}
		progs := same(3, "depart", func(ctx *sys.Context) error {
			if _, err := ctx.Time(); err != nil {
				return err
			}
			if ctx.Variant == 2 {
				parked.Wait()
				time.Sleep(5 * time.Millisecond) // let the siblings park
				return errors.New("segfault at 0x0")
			}
			for i := 0; i < 3; i++ {
				if _, err := ctx.Time(); err != nil {
					return err
				}
			}
			return ctx.Exit(0)
		})
		return mustRun(t, newWorld(t), progs, append(opts, WithFaultHook(hook), WithTimeout(5*time.Second))...)
	}

	t.Run("unanimous-variant-fault", func(t *testing.T) {
		res := run(t)
		a := res.Alarm
		if a == nil || a.Reason != ReasonVariantFault || a.Variant != 2 || a.Seq != 1 || a.Syscall != "(none)" {
			t.Fatalf("alarm = %+v, want variant-fault on variant 2 at seq 1", a)
		}
		if a.Detail != "segfault at 0x0" || a.VTime != 1 {
			t.Errorf("detail %q vtime %d, want the variant's error at vtime 1", a.Detail, a.VTime)
		}
		if res.VariantErrs[0] != nil || res.VariantErrs[1] != nil || res.VariantErrs[2] == nil {
			t.Errorf("variant errs = %v, want the parked siblings killed and variant 2's error", res.VariantErrs)
		}
	})

	t.Run("quorum-eviction", func(t *testing.T) {
		res := run(t, WithQuorum(2))
		if !res.Clean || res.Alarm != nil {
			t.Fatalf("clean=%v alarm=%+v", res.Clean, res.Alarm)
		}
		want := Eviction{Variant: 2, Worker: 0, Kind: FaultCrash, Seq: 1, VTime: 1, Live: 2, Detail: "segfault at 0x0"}
		if len(res.Evictions) != 1 || res.Evictions[0] != want {
			t.Fatalf("evictions = %+v, want [%+v]", res.Evictions, want)
		}
		if res.Rendezvous != 5 {
			t.Errorf("rendezvous = %d, want 5", res.Rendezvous)
		}
	})
}

// settledGoroutines waits for goroutines earlier tests left exiting
// (released stragglers) to finish, and returns the settled count.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(10 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

func TestLaneGoroutinesAreTheVariants(t *testing.T) {
	// No goroutine serves a lane: a W-lane group of N variants runs on
	// exactly its N×W variant goroutines (here beside the one running
	// Run), and none is left once Run returns.
	const n, workers = 2, 3
	before := settledGoroutines()
	net := simnet.New(0)
	port, done := startEcho(t, newWorld(t), net, n, func() *echoServer {
		return &echoServer{workers: workers, port: 9321}
	})
	want := before + 1 + n*workers
	if !testutil.Poll(5*time.Second, func() bool { return runtime.NumGoroutine() == want }) {
		t.Fatalf("serving group runs %d goroutines, want %d (N×W variants plus Run's caller)", runtime.NumGoroutine()-before, want-before)
	}

	// Every lane holds a connection mid-conversation.
	conns := make([]*simnet.Conn, workers)
	for i := range conns {
		c, err := net.Dial(port)
		if err != nil {
			t.Fatal(err)
		}
		echoOnce(t, c, "hello")
		conns[i] = c
	}
	if got := runtime.NumGoroutine(); got != want {
		t.Errorf("group serving %d connections runs %d goroutines, want %d", workers, got-before, want-before)
	}
	for _, c := range conns {
		_ = c.Close()
	}
	if err := net.ShutdownPort(port); err != nil {
		t.Fatal(err)
	}
	if res := <-done; !res.Clean || res.Workers != workers {
		t.Fatalf("clean=%v workers=%d alarm=%+v", res.Clean, res.Workers, res.Alarm)
	}
	testutil.CheckNoGoroutineLeak(t, before, 0)
}
