// Package nvkernel implements the N-variant monitor "kernel" of the
// paper (§3.1): it launches N variants of a program, synchronizes them
// at system-call boundaries, checks that every rendezvous is made with
// equivalent arguments (after per-variant inverse reexpression of
// UID-typed data), performs input system calls once (replicating
// results to all variants), performs output system calls once (after
// cross-checking payloads), supports unshared files with per-variant
// contents (§3.4), and implements the detection system calls of
// Table 2. Any divergence raises an Alarm, which in the paper's threat
// model is a detected attack.
//
// The paper's implementation is a modified Linux kernel monitoring a
// prefork Apache *process group*; this is a user-space simulation of
// exactly the syscall-boundary contract the paper states, with
// variants as goroutines over simulated address spaces (see DESIGN.md,
// substitutions table). A group may hold W ≥ 1 worker lanes (the
// prefork workers): each lane is an independent N-variant rendezvous
// with its own per-lane scratch, while the descriptor table,
// credentials, virtual time, captured output and the alarm are
// group-wide — and an alarm in any lane kills the entire group,
// preserving the paper's detection contract. There is no monitor
// goroutine: the variant whose arrival completes a lane's round checks
// and executes it on its own goroutine (round.go), and one group-wide
// watchdog timer detects stalled rounds.
package nvkernel

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"nvariant/internal/reexpress"
	"nvariant/internal/simnet"
	"nvariant/internal/sys"
	"nvariant/internal/vmem"
	"nvariant/internal/vos"
	"nvariant/internal/word"
)

// Result is the outcome of running an N-variant process group.
type Result struct {
	// Clean reports an orderly exit with no alarm (every worker lane
	// exited).
	Clean bool
	// Status is the primary lane's exit status (valid when Clean).
	Status word.Word
	// Alarm is non-nil when the monitor detected divergence.
	Alarm *Alarm
	// Stdout captures bytes written to fd 1 (written once, as with any
	// output syscall).
	Stdout []byte
	// Stderr captures bytes written to fd 2.
	Stderr []byte
	// Rendezvous counts monitored syscall rendezvous across all lanes.
	Rendezvous int
	// Workers is the number of worker lanes the group ran (1 unless the
	// program preforked).
	Workers int
	// VTime is the group's virtual clock at teardown — the
	// deterministic in-matrix timestamp audit consumers pair with the
	// out-of-matrix wall clock.
	VTime uint32
	// VariantErrs holds each variant's terminal error (nil for clean
	// returns and monitor kills), lane-major: lane 0's variants first.
	VariantErrs []error
	// Evictions records the quorum machinery's degraded-mode history:
	// one entry per variant fault absorbed by eviction, in eviction
	// order. Empty unless WithQuorum was set and a fault occurred.
	Evictions []Eviction
}

// Detected reports whether the run ended in an alarm.
func (r *Result) Detected() bool { return r.Alarm != nil }

// Degraded reports whether the group evicted at least one variant and
// finished on a K-of-N quorum.
func (r *Result) Degraded() bool { return len(r.Evictions) > 0 }

// callMsg is one variant's arrival at a syscall rendezvous. Each
// variant owns one, reused for every syscall with its long-lived
// buffered reply channel: a variant has at most one call in flight and
// every arrival is answered exactly once, so nothing is allocated per
// rendezvous.
type callMsg struct {
	call  sys.Call
	reply chan sys.Reply
	// self marks the round owner's own arrival while it runs the
	// round: answer keeps its reply in out, which the owner returns
	// directly instead of sending it to itself.
	self bool
	out  sys.Reply
	// own is set on a parked arrival before it is woken to execute a
	// round that a goroutine with no call in it claimed and settled (a
	// departing variant, the watchdog, an eviction); the value received
	// with that wake-up is not a reply.
	own bool
}

// answer delivers the round's reply to one arrival.
func (m *callMsg) answer(r sys.Reply) {
	if m.self {
		m.out = r
		return
	}
	m.reply <- r
}

// variantRT is the runtime state of one variant of one lane.
type variantRT struct {
	id  int
	bit uint64 // 1 << id, the variant's bit in the lane masks
	err error
	mem *vmem.Space
	msg callMsg
}

// exitDetail describes a variant that returned instead of arriving.
func (v *variantRT) exitDetail() string {
	if v.err != nil {
		return v.err.Error()
	}
	return "variant terminated unexpectedly"
}

// Run executes progs (one per variant) as an N-variant process group
// under the monitor. len(progs) is the group size: 1 reproduces the
// paper's "unmodified kernel" baseline configurations, 2 the deployed
// systems. A program that calls Context.Prefork widens the group into
// W concurrent worker lanes (each lane runs all N variants).
func Run(world *vos.World, net *simnet.Network, progs []sys.Program, opts ...Option) (*Result, error) {
	n := len(progs)
	if n == 0 {
		return nil, errors.New("nvkernel: no variants")
	}
	if n > 64 {
		// A lane tracks its arrivals and the live set in uint64 masks;
		// wider groups would need a different representation, and
		// nothing near that width exists.
		return nil, fmt.Errorf("nvkernel: at most 64 variants, got %d", n)
	}
	cfg := defaultConfig(n)
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.Timeout <= 0 {
		// The stall watchdog fires every Timeout.
		return nil, fmt.Errorf("nvkernel: rendezvous timeout must be positive, got %v", cfg.Timeout)
	}
	if len(cfg.UIDFuncs) != n {
		return nil, fmt.Errorf("nvkernel: %d UID funcs for %d variants", len(cfg.UIDFuncs), n)
	}
	if cfg.Spec != nil {
		if cfg.Spec.N() != n {
			// A width mismatch would deploy a partition layout and
			// record a configuration different from what the spec was
			// validated for.
			return nil, fmt.Errorf("nvkernel: spec describes %d variants, got %d programs", cfg.Spec.N(), n)
		}
		if cfg.Spec.HasLayer(reexpress.LayerInstructionTags) {
			// Variants here are native programs; instruction words only
			// exist on the tagged-ISA substrate. Refusing is better
			// than reporting a security layer as deployed while
			// ignoring it.
			return nil, fmt.Errorf("nvkernel: instruction-tag layers deploy on the isa substrate (isa.RunSpec), not under the monitor kernel")
		}
	}

	// Address canonicalization width: the two-variant construction
	// clears the single high (partition) bit; N > 2 partitioned groups
	// clear the ⌈log₂N⌉ slot-index bits instead.
	addrBits := 1
	if cfg.AddressPartition && n > 2 {
		addrBits = vmem.PartitionBits(n)
	}

	// Per-variant partition slots, computed once and reused by every
	// lane (worker lanes get fresh address spaces with the same
	// per-variant layout, like forked processes of the same variant).
	parts := make([]vmem.Partition, n)
	for i := 0; i < n; i++ {
		parts[i] = vmem.PartitionNone
		if cfg.AddressPartition {
			var err error
			parts[i], err = vmem.PartitionSlot(i, n)
			if err != nil {
				return nil, fmt.Errorf("nvkernel: partition variant %d of %d: %w", i, n, err)
			}
		}
	}

	s := &system{
		world:    world,
		net:      net,
		cfg:      cfg,
		n:        n,
		progs:    progs,
		parts:    parts,
		addrBits: addrBits,
		// killed is closed on the first alarm: the group-wide kill
		// fan-out (kill) retires every lane.
		killed: make(chan struct{}),
		exited: make(chan struct{}),
	}

	primary := s.newLane(0)
	s.lanes = []*lane{primary}
	s.running.Add(1)
	s.alive.Store(int32(n))
	s.mu.Lock()
	s.watchdog = time.AfterFunc(cfg.Timeout, s.watch)
	s.mu.Unlock()
	for i, v := range primary.variants {
		s.start(primary, v, progs[i].Run)
	}
	s.running.Wait()

	// Every lane has retired, so the lane roster is final and no round
	// runs anymore: a variant still running is answered Killed at its
	// next syscall. A variant that spins without syscalls cannot be
	// preempted (goroutines are not killable the way the paper's kernel
	// SIGKILLs a process), so the wait for the variants to return is
	// bounded by a grace period; stragglers are reported as such, and
	// only a variant that never syscalls again can outlive Run.
	s.mu.Lock()
	s.over = true
	s.mu.Unlock()
	s.watchdog.Stop()
	grace := time.NewTimer(cfg.Timeout)
	select {
	case <-s.exited:
		grace.Stop()
	case <-grace.C:
	}

	res := &Result{
		Clean:       s.alarm == nil && s.exitedLanes == len(s.lanes),
		Status:      s.status,
		Alarm:       s.alarm,
		Stdout:      s.stdout,
		Stderr:      s.stderr,
		Workers:     len(s.lanes),
		VTime:       s.vtime.Load(),
		VariantErrs: make([]error, 0, n*len(s.lanes)),
	}
	s.mu.Lock()
	res.Evictions = append(res.Evictions, s.evictions...)
	s.mu.Unlock()
	for _, l := range s.lanes {
		res.Rendezvous += l.rendezvous
		l.mu.Lock()
		down := l.down
		l.mu.Unlock()
		for _, v := range l.variants {
			if down&v.bit != 0 {
				res.VariantErrs = append(res.VariantErrs, v.err)
			} else {
				res.VariantErrs = append(res.VariantErrs, errStillRunning)
			}
		}
	}
	return res, nil
}

// errStillRunning marks a variant that had not terminated when the
// post-alarm grace period expired.
var errStillRunning = errors.New("nvkernel: variant still running at shutdown")

// system is the group-wide kernel state shared by every worker lane.
// Ownership map (the "Concurrency model" section of DESIGN.md):
//
//   - Per lane, under the lane's mu: the gathering round (arrival
//     slots and masks) and the lane's busy/retired state.
//   - Per lane, round-owner private: the claimed round's arrivals, the
//     rendezvous scratch (canon/ioBuf/cmpBuf/pin), the credentials and
//     the live-set view. Only the goroutine holding the lane's claim
//     touches them; the claim passes between goroutines through the
//     lane's mu or the wake-up of the arrival it is handed to — never
//     locked while a round runs, which keeps the steady state
//     allocation- and contention-free.
//   - Group-wide under mu: the descriptor table (with the filesystem
//     it reaches — vos.FS is single-threaded by contract), captured
//     stdout/stderr, the alarm slot, exit bookkeeping and the lane
//     roster. mu is never held across a blocking operation: lanes look
//     an entry up under mu, then block on the simnet object (itself
//     thread-safe) with mu released, so Accept is the only place
//     concurrent lanes serialize for more than a table probe — exactly
//     prefork Apache's accept contention. Where both are held, mu is
//     taken before a lane's mu.
//   - Group-wide lock-free: virtual time, the scoreboard counter and
//     the eviction mask (atomics), the killed channel (close-once).
type system struct {
	world    *vos.World
	net      *simnet.Network
	cfg      Config
	n        int
	progs    []sys.Program
	parts    []vmem.Partition
	addrBits int

	mu          sync.Mutex
	files       []fileEntry
	stdout      []byte
	stderr      []byte
	alarm       *Alarm
	lanes       []*lane
	exitedLanes int
	status      word.Word
	preforked   bool

	// vtime is the group's virtual clock: it ticks once per completed
	// rendezvous across all lanes, so every audit stamp (Alarm.VTime,
	// Result.VTime) and Time syscall reply is a position on the same
	// monotonic, wall-clock-free timeline.
	vtime atomic.Uint32
	score atomic.Int64

	// evicted is the group-wide live-set mask: bit i set means variant
	// i has been evicted by the quorum machinery. Arrivals read it
	// under their lane's mu, and a round owner copies it into its
	// private view when it claims the round (one atomic load; no lock),
	// so the steady-state round allocates nothing and rebuilds no
	// slices. Writes happen under mu in tryEvict; evictions (under mu)
	// is the ordered record Result reports.
	evicted   atomic.Uint64
	evictions []Eviction

	killed   chan struct{}
	killOnce sync.Once

	// running counts the lanes that have not retired; Run waits for
	// it. alive counts the variant goroutines still running, and the
	// last one to return closes exited.
	running sync.WaitGroup
	alive   atomic.Int32
	exited  chan struct{}

	// watchdog is the group's stall detector (watch), re-armed from
	// its own callback; over (under mu) stops the re-arming once Run
	// collects the result.
	watchdog *time.Timer
	over     bool
}

// start runs variant v of lane l on its own goroutine. The goroutine
// is the variant: it executes the program, arrives at each rendezvous
// through its invoker (running the rounds its arrival completes), and
// departs the lane when the program returns.
func (s *system) start(l *lane, v *variantRT, body func(*sys.Context) error) {
	ctx := sys.NewContext(v.id, s.n, v.mem, s.invokerFor(l, v))
	ctx.Worker = l.id
	go func() {
		err := body(ctx)
		if err == nil && !ctx.Exited() {
			err = ctx.Exit(0)
		}
		if err != nil && !errors.Is(err, sys.ErrKilled) {
			v.err = err
		}
		l.depart(v)
	}()
}

// invokerFor builds the syscall invoker of one variant of one lane.
func (s *system) invokerFor(l *lane, v *variantRT) sys.Invoker {
	hook := s.cfg.Faults
	return func(call sys.Call) sys.Reply {
		if hook != nil {
			if stall, crash := hook.PreSyscall(l.id, v.id, call.Num); crash {
				// The variant dies before reaching the rendezvous: its
				// goroutine unwinds via ErrCrashed and departs, which
				// the lane settles as a variant fault.
				return sys.Reply{Crashed: true}
			} else if stall > 0 {
				time.Sleep(stall)
			}
		}
		v.msg.call = call
		return l.arrive(v)
	}
}

// newLane allocates lane id with fresh per-variant address spaces and
// mailboxes, starting from the group's initial credentials. The lane
// is not yet registered or running.
func (s *system) newLane(id int) *lane {
	l := &lane{
		sys:   s,
		id:    id,
		cred:  s.cfg.Cred,
		all:   ^uint64(0) >> uint(64-s.n),
		seen:  -1,
		slots: make([]*callMsg, s.n),
		msgs:  make([]*callMsg, s.n),
	}
	l.variants = make([]*variantRT, s.n)
	for i := 0; i < s.n; i++ {
		v := &variantRT{id: i, bit: 1 << uint(i), mem: vmem.New(s.parts[i])}
		v.msg.reply = make(chan sys.Reply, 1)
		l.variants[i] = v
	}
	return l
}

// spawnWorkerLane starts worker lane id running the given worker
// bodies (one per variant). cred is the forking lane's credentials at
// prefork time — the fork-copied identity the worker starts with.
func (s *system) spawnWorkerLane(id int, workers []sys.WorkerProgram, cred vos.Cred) {
	l := s.newLane(id)
	l.cred = cred
	s.mu.Lock()
	s.lanes = append(s.lanes, l)
	if s.killedNow() {
		// The group died while forking, after kill's fan-out retired
		// the roster: the lane is born retired, so its variants are
		// answered Killed at their first syscall.
		l.retired, l.finished = true, true
	} else {
		s.running.Add(1)
	}
	s.mu.Unlock()
	s.alive.Add(int32(s.n))
	for i, v := range l.variants {
		wp := workers[i]
		s.start(l, v, func(ctx *sys.Context) error { return wp.RunWorker(ctx, id) })
	}
}

// syncLive installs eviction mask g as the lane's live-set view if it
// changed: one compare, and for unanimous groups g is always 0.
func (l *lane) syncLive(g uint64) {
	if g != l.dead {
		l.applyDead(g)
	}
}

// applyDead installs eviction mask g as the lane's live-set view:
// dead and ref are recomputed in place (no slice rebuild). ref is the
// lowest live index — the reference every cross-check compares
// against, variant 0 until variant 0 itself is evicted, so unanimous
// groups behave and report byte-identically.
func (l *lane) applyDead(g uint64) {
	l.dead = g
	l.ref = bits.TrailingZeros64(^g)
}

// reapDead restores the round invariant after a mid-round live-set
// change: any claimed arrival whose variant is now dead is answered
// Killed and its slot cleared, so a non-nil slot always belongs to a
// live variant when the round dispatches.
func (l *lane) reapDead(msgs []*callMsg) {
	for j, m := range msgs {
		if m != nil && l.dead&(1<<uint(j)) != 0 {
			m.answer(sys.Reply{Killed: true})
			msgs[j] = nil
		}
	}
}

// fault absorbs variant i's fault of the given kind, observed by the
// goroutine holding the lane's claim: with a quorum and enough live
// survivors the variant is evicted, pending arrivals the live set
// dropped are answered Killed, and fault returns true; otherwise
// (unanimous, or quorum lost) the fault kills the group.
func (l *lane) fault(i int, kind FaultKind, detail string, pending []*callMsg) bool {
	if l.tryEvict(i, kind, detail) {
		l.reapDead(pending)
		return true
	}
	reason := ReasonVariantFault
	if kind == FaultStall {
		reason = ReasonTimeout
	}
	if l.sys.cfg.Quorum > 0 {
		reason = ReasonQuorumLost
	}
	l.raise(&Alarm{
		Reason:  reason,
		Syscall: "(none)",
		Seq:     l.rendezvous,
		Variant: i,
		Detail:  detail,
	}, pending)
	return false
}

// tryEvict attempts to absorb a variant fault by eviction: with a
// quorum configured, no alarm pending, and at least Quorum variants
// live after dropping the faulted one, the variant is evicted
// group-wide (audit entry appended, dropped from every lane's
// gathering round) and the lane adopts the new live set. It returns
// false when the fault must kill the group instead — no quorum
// configured, or evicting would fall below K.
func (l *lane) tryEvict(variant int, kind FaultKind, detail string) bool {
	s := l.sys
	if s.cfg.Quorum <= 0 {
		return false
	}
	bit := uint64(1) << uint(variant)
	s.mu.Lock()
	if s.alarm != nil {
		// An alarm outranks degraded mode: the group is dying anyway.
		s.mu.Unlock()
		return false
	}
	g := s.evicted.Load()
	if g&bit != 0 {
		// A sibling lane evicted this variant first: adopt its view.
		s.mu.Unlock()
		l.applyDead(g)
		return true
	}
	liveAfter := s.n - bits.OnesCount64(g) - 1
	if liveAfter < s.cfg.Quorum {
		s.mu.Unlock()
		return false
	}
	g |= bit
	s.evicted.Store(g)
	ev := Eviction{
		Variant: variant,
		Worker:  l.id,
		Kind:    kind,
		Seq:     l.rendezvous,
		VTime:   s.vtime.Load(),
		Live:    liveAfter,
		Detail:  detail,
	}
	s.evictions = append(s.evictions, ev)
	// Drop the variant from every lane under mu, which orders this
	// against lane registration in spawnWorkerLane. A round the
	// eviction completes is claimed here and passed on below, once no
	// lock is held.
	var claimed []*lane
	for _, other := range s.lanes {
		if other.drop(variant) {
			claimed = append(claimed, other)
		}
	}
	s.mu.Unlock()
	if m := s.cfg.Metrics; m != nil {
		m.observeEviction(kind)
	}
	if fn := s.cfg.OnEvict; fn != nil {
		fn(ev)
	}
	l.applyDead(g)
	for _, c := range claimed {
		c.pass()
	}
	return true
}

// raise records the alarm (first alarm wins group-wide), kills the
// pending arrivals of this lane's claimed round, and tears the whole
// group down — as the paper's kernel SIGKILLs the process group: every
// descriptor is released, which unblocks sibling lanes parked in
// accept/recv so their rounds end too. Closing connections is what a
// remote attacker observes: the connection drops with no response.
func (l *lane) raise(a *Alarm, pending []*callMsg) {
	s := l.sys
	a.Worker = l.id
	// Stamped unconditionally — with or without metrics attached the
	// run behaves identically, which is what keeps seeded campaign
	// output byte-identical when instrumentation is enabled.
	a.At = time.Now()
	a.VTime = s.vtime.Load()
	won := false
	s.mu.Lock()
	if s.alarm == nil {
		s.alarm = a
		won = true
	}
	s.mu.Unlock()
	for _, m := range pending {
		if m != nil {
			m.answer(sys.Reply{Killed: true})
		}
	}
	s.kill()
	if won {
		if m := s.cfg.Metrics; m != nil {
			m.observeAlarm(a.Reason, time.Since(a.At))
		}
	}
}

// kill signals the group-wide teardown, releases every descriptor and
// retires every lane: arrivals parked in a gathering round are
// answered Killed at once, and a lane whose round is running retires
// when its owner releases it.
func (s *system) kill() {
	s.killOnce.Do(func() { close(s.killed) })
	s.mu.Lock()
	s.closeAllLocked()
	for _, l := range s.lanes {
		l.mu.Lock()
		l.retireLocked()
		l.mu.Unlock()
	}
	s.mu.Unlock()
}

// killedNow reports whether the group kill has been signalled.
func (s *system) killedNow() bool {
	select {
	case <-s.killed:
		return true
	default:
		return false
	}
}

// dispatch checks rendezvous equivalence and executes the syscall.
// It returns true when the lane retires. Slots of
// evicted variants are nil (degraded mode); every cross-check compares
// the live variants against the reference variant l.ref.
func (l *lane) dispatch(msgs []*callMsg) bool {
	s := l.sys
	seq := l.rendezvous - 1
	ref := l.ref
	num := msgs[ref].call.Num
	spec, ok := sys.SpecFor(num)
	if !ok {
		l.raise(&Alarm{
			Reason: ReasonSyscallMismatch, Syscall: "unknown", Seq: seq, Variant: ref,
			Detail: fmt.Sprintf("unknown syscall number %d", num),
		}, msgs)
		return true
	}

	// All (live) variants must make the same system call (§3.1).
	for i := 0; i < s.n; i++ {
		if i == ref || msgs[i] == nil {
			continue
		}
		if msgs[i].call.Num != num {
			l.raise(&Alarm{
				Reason:  ReasonSyscallMismatch,
				Syscall: spec.Name,
				Seq:     seq,
				Variant: i,
				Detail: fmt.Sprintf("variant %d at %s, variant %d at %s",
					ref, num, i, msgs[i].call.Num),
			}, msgs)
			return true
		}
	}

	// I/O on unshared files is per-variant by design (§3.4): each
	// variant reads or writes its own diversified file, so buffer
	// addresses and lengths may legitimately differ. Only the file
	// descriptor is required to agree; everything else is handled
	// per variant by the executor.
	if num == sys.Read || num == sys.Write {
		if alarm := l.checkArgCounts(spec, msgs, seq); alarm != nil {
			l.raise(alarm, msgs)
			return true
		}
		fd0 := msgs[ref].call.Args[0]
		s.mu.Lock()
		idx, err := s.slotFor(fd0)
		unsharedFile := err == nil && s.files[idx].kind == kindFile && !s.files[idx].shared
		s.mu.Unlock()
		if unsharedFile {
			for i := 0; i < s.n; i++ {
				if i == ref || msgs[i] == nil {
					continue
				}
				if msgs[i].call.Args[0] != fd0 {
					l.raise(&Alarm{
						Reason:  ReasonArgDivergence,
						Syscall: spec.Name,
						Seq:     seq,
						Variant: i,
						Detail:  fmt.Sprintf("fd %d differs from variant %d's %d", msgs[i].call.Args[0], ref, fd0),
					}, msgs)
					return true
				}
			}
			canon := l.canonBuf(3)
			canon[0], canon[1], canon[2] = fd0, 0, 0
			return l.execute(spec, num, canon, msgs, seq)
		}
	}

	// Canonicalize and compare arguments.
	canon, alarm := l.canonicalArgs(spec, msgs, seq)
	if alarm != nil {
		l.raise(alarm, msgs)
		return true
	}

	// Paths must be identical.
	if spec.TakesPath {
		p0 := msgs[ref].call.Data
		for i := 0; i < s.n; i++ {
			if i == ref || msgs[i] == nil {
				continue
			}
			if !bytes.Equal(msgs[i].call.Data, p0) {
				l.raise(&Alarm{
					Reason:  ReasonArgDivergence,
					Syscall: spec.Name,
					Seq:     seq,
					Variant: i,
					Detail:  fmt.Sprintf("path %q differs from variant %d's %q", msgs[i].call.Data, ref, p0),
				}, msgs)
				return true
			}
		}
	}

	return l.execute(spec, num, canon, msgs, seq)
}

// checkArgCounts validates each live variant's argument count against
// the spec.
func (l *lane) checkArgCounts(spec sys.Spec, msgs []*callMsg, seq int) *Alarm {
	nargs := len(spec.Args)
	for i, m := range msgs {
		if m == nil {
			continue
		}
		if len(m.call.Args) != nargs {
			return &Alarm{
				Reason:  ReasonArgDivergence,
				Syscall: spec.Name,
				Seq:     seq,
				Variant: i,
				Detail:  fmt.Sprintf("argument count %d, want %d", len(m.call.Args), nargs),
			}
		}
	}
	return nil
}

// canonBuf returns the lane's reusable canonical-argument scratch,
// sized to nargs. The returned slice is valid until the next
// rendezvous.
func (l *lane) canonBuf(nargs int) []word.Word {
	if cap(l.canon) < nargs {
		l.canon = make([]word.Word, nargs)
	}
	return l.canon[:nargs]
}

// canonicalArgs inverts/normalizes each live variant's arguments and
// checks cross-variant equivalence, returning the reference variant's
// canonical vector (borrowed scratch, valid until the next
// rendezvous). The reference is the lowest live index, so no non-nil
// slot precedes it.
func (l *lane) canonicalArgs(spec sys.Spec, msgs []*callMsg, seq int) ([]word.Word, *Alarm) {
	s := l.sys
	if alarm := l.checkArgCounts(spec, msgs, seq); alarm != nil {
		return nil, alarm
	}
	nargs := len(spec.Args)
	canon := l.canonBuf(nargs)
	ref := l.ref
	for j := 0; j < nargs; j++ {
		kind := spec.Args[j]
		var c0 word.Word
		for i := 0; i < s.n; i++ {
			if msgs[i] == nil {
				continue
			}
			raw := msgs[i].call.Args[j]
			var cv word.Word
			switch kind {
			case sys.ArgUID:
				inv, err := s.cfg.UIDFuncs[i].Invert(raw)
				if err != nil {
					return nil, &Alarm{
						Reason:  ReasonUIDDivergence,
						Syscall: spec.Name,
						Seq:     seq,
						Variant: i,
						Detail:  fmt.Sprintf("arg %d: invalid UID representation %s: %v", j, raw, err),
					}
				}
				cv = inv
			case sys.ArgAddr:
				cv = vmem.CanonicalIn(raw, s.addrBits)
			default:
				cv = raw
			}
			if i == ref {
				c0 = cv
				continue
			}
			if cv != c0 {
				reason := ReasonArgDivergence
				detail := fmt.Sprintf("arg %d: canonical %s differs from variant %d's %s", j, cv, ref, c0)
				switch kind {
				case sys.ArgUID:
					reason = ReasonUIDDivergence
					detail = fmt.Sprintf(
						"arg %d: UID decodes to %s in variant %d but %s in variant %d (raw %s vs %s)",
						j, cv.Decimal(), i, c0.Decimal(), ref, msgs[i].call.Args[j], msgs[ref].call.Args[j])
				case sys.ArgBool:
					reason = ReasonCondDivergence
					detail = fmt.Sprintf("condition value %d differs from variant %d's %d", cv, ref, c0)
				}
				return nil, &Alarm{
					Reason:  reason,
					Syscall: spec.Name,
					Seq:     seq,
					Variant: i,
					Detail:  detail,
				}
			}
		}
		canon[j] = c0
	}
	return canon, nil
}

// replyAll sends the same reply to every live variant (nil slots
// belong to evicted variants).
func replyAll(msgs []*callMsg, r sys.Reply) {
	for _, m := range msgs {
		if m != nil {
			m.answer(r)
		}
	}
}

// replyErrno sends an errno reply to every variant.
func replyErrno(msgs []*callMsg, err error) {
	if e, ok := vos.AsErrno(err); ok {
		replyAll(msgs, sys.Reply{Errno: e})
		return
	}
	replyAll(msgs, sys.Reply{Errno: vos.ErrInval})
}

// replyFail answers a failed blocking operation: with Killed when the
// group has been torn down (so variants unwind via ErrKilled instead
// of mistaking the teardown for an errno), with the errno otherwise.
// It returns true when the lane retires.
func (l *lane) replyFail(msgs []*callMsg, err error) bool {
	if l.sys.killedNow() {
		replyAll(msgs, sys.Reply{Killed: true})
		return true
	}
	replyErrno(msgs, err)
	return false
}
