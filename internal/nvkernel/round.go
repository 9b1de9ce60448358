package nvkernel

import (
	"fmt"
	"math/bits"
	"sync"
	"time"

	"nvariant/internal/sys"
	"nvariant/internal/vos"
	"nvariant/internal/word"
)

// lane is one worker lane: an independent N-variant rendezvous with
// its own scratch, sharing the system state. No goroutine serves it.
// Each variant writes its call into its slot and counts its arrival
// under mu; the arrival that completes the round claims it and runs it
// on its own goroutine — canonicalization, cross-checks, execution,
// the replies to the parked arrivals — and returns its own reply
// directly. Non-last arrivals park on their reply channel.
type lane struct {
	sys *system
	id  int

	variants []*variantRT
	all      uint64 // one bit per variant

	// The gathering round and the lane's state, under mu. slots holds
	// the call arrivals and arrived their bits; down has the bit of
	// every variant whose goroutine returned (it departs once, for
	// good). busy is set while a goroutine holds the lane's claim —
	// running a claimed round, or the watchdog settling a stall — and
	// no round completes meanwhile. A retired lane (exit, alarm, group
	// kill) answers every syscall Killed at once; finished is set once
	// its retirement released Run's wait. seen is the watchdog's
	// progress mark: the rendezvous count at its previous firing, -1
	// when that firing did not find the lane idle.
	mu       sync.Mutex
	slots    []*callMsg
	arrived  uint64
	down     uint64
	busy     bool
	retired  bool
	finished bool
	seen     int

	// cred is the lane's credential set — per lane, exactly as fork
	// gives each prefork worker its own copy of the parent's
	// credentials. Worker lanes snapshot the primary lane's cred at
	// prefork time. Round-owner private: a lane changing its identity
	// (httpd's per-request seteuid dance) must never race a sibling
	// lane's permission checks — with one group-wide cred, a lane's
	// between-requests re-escalation to root would let a concurrent
	// sibling open a root-only document and leak it.
	cred vos.Cred

	// Round-owner private from here on: touched only by the goroutine
	// holding the lane's claim, and handed to the next holder through
	// mu (or the wake-up of the arrival a claim is passed to). msgs is
	// the claimed round's arrivals (nil for a variant that did not
	// arrive with a call), faulted its departed variants. The rest is
	// rendezvous scratch, reused so the steady-state round allocates
	// nothing: the canonical argument vector, the payload-gathering
	// buffers, and the pinned open-file descriptions of the write path.
	msgs    []*callMsg
	faulted uint64
	canon   []word.Word
	ioBuf   []byte // reference-variant payloads and shared-read staging
	cmpBuf  []byte // other variants' payloads during cross-checking
	pin     []*vos.OpenFile

	// Live-set view, synced from the group-wide evicted mask when a
	// round is claimed: dead is the local copy of the eviction bitmask,
	// ref the lowest live index — the variant every cross-check
	// compares against (variant 0 until it is evicted, so unanimous
	// groups behave and report byte-identically).
	dead uint64
	ref  int

	// rendezvous counts the lane's executed rounds; the watchdog reads
	// it under mu while no claim is held.
	rendezvous int
	exited     bool
}

// arrive is variant v's entry into the lane's rendezvous, its call
// already in v.msg. It returns the variant's reply.
func (l *lane) arrive(v *variantRT) sys.Reply {
	m := &v.msg
	l.mu.Lock()
	if l.retired || l.sys.evicted.Load()&v.bit != 0 {
		// Nothing gathers this variant again: its lane retired, or the
		// quorum evicted it. Killed unwinds the goroutine exactly like a
		// group teardown.
		l.mu.Unlock()
		return sys.Reply{Killed: true}
	}
	l.slots[v.id] = m
	l.arrived |= v.bit
	if l.completeLocked() {
		l.claimLocked()
		l.mu.Unlock()
		return l.run(m, true)
	}
	l.mu.Unlock()
	r := <-m.reply
	if !m.own {
		return r
	}
	// Woken to execute a round another goroutine claimed and settled.
	m.own = false
	return l.run(m, false)
}

// completeLocked reports whether the gathering round is complete and
// free to claim: every variant arrived, departed or was evicted.
// Caller holds mu.
func (l *lane) completeLocked() bool {
	return !l.busy && !l.retired && (l.arrived|l.down|l.sys.evicted.Load()) == l.all
}

// claimLocked takes the lane's claim on the completed gathering round:
// its arrivals become the owner's msgs, the slots start the next round
// (a variant answered early may arrive again while the owner still
// runs this one), and the owner's live-set view adopts the eviction
// mask the round completed under. Caller holds mu.
func (l *lane) claimLocked() {
	l.busy = true
	l.msgs, l.slots = l.slots, l.msgs
	clear(l.slots)
	l.arrived = 0
	g := l.sys.evicted.Load()
	l.syncLive(g)
	l.faulted = l.down &^ g
}

// run executes the claimed round on the caller's goroutine, m being
// the caller's own arrival in it, releases the lane and returns the
// caller's reply. settle is false when the claimer already absorbed
// the round's faults (pass).
func (l *lane) run(m *callMsg, settle bool) sys.Reply {
	m.self = true
	stop := settle && l.settle()
	if !stop {
		stop = l.execRound()
	}
	m.self = false
	l.release(stop)
	return m.out
}

// execRound ticks the lane's and the group's clocks and dispatches the
// claimed round. It returns true when the lane retires.
func (l *lane) execRound() bool {
	s := l.sys
	l.rendezvous++
	s.vtime.Add(1)
	if m := s.cfg.Metrics; m != nil {
		// Timed rendezvous: two clock reads and a few atomic adds — the
		// round stays allocation-free (proven by
		// TestInstrumentedRendezvousZeroAlloc and the bench gate).
		start := time.Now()
		num := l.msgs[l.ref].call.Num
		stop := l.dispatch(l.msgs)
		m.observeRendezvous(num, time.Since(start))
		return stop
	}
	return l.dispatch(l.msgs)
}

// settle absorbs the claimed round's faults — variants whose goroutine
// returned instead of arriving — in index order: each is evicted when
// the quorum allows, otherwise the group dies. It returns true when
// the round ended in an alarm.
func (l *lane) settle() bool {
	for f := l.faulted; f != 0; f &= f - 1 {
		i := bits.TrailingZeros64(f)
		if l.dead&(1<<uint(i)) != 0 {
			continue // a sibling lane evicted it meanwhile
		}
		if !l.fault(i, FaultCrash, l.variants[i].exitDetail(), l.msgs) {
			return true
		}
	}
	return false
}

// release ends the caller's claim on the lane; stop retires the lane
// (exit or alarm). A round that completed while the lane was held — an
// eviction can complete one without its owner arriving again — is
// claimed and passed on.
func (l *lane) release(stop bool) {
	l.mu.Lock()
	l.busy = false
	if stop || l.retired {
		l.retireLocked()
		l.mu.Unlock()
		return
	}
	if !l.completeLocked() {
		l.mu.Unlock()
		return
	}
	l.claimLocked()
	l.mu.Unlock()
	l.pass()
}

// pass runs a round claimed by a goroutine with no call in it (a
// departing variant, the watchdog, an eviction): it absorbs the
// round's faults, then wakes the lowest live arrival to execute the
// round. Execution may block in Accept or Recv, which must never hold
// up the watchdog or a departing variant.
func (l *lane) pass() {
	if l.settle() {
		l.release(true)
		return
	}
	// A settled round keeps at least one live arrival: every live
	// variant arrived or departed, the departed ones were evicted, and
	// a quorum keeps K ≥ 1 variants live.
	m := l.msgs[l.ref]
	m.own = true
	m.reply <- sys.Reply{}
}

// depart records variant v's exit: it arrives at the rendezvous dead.
// On a live lane that is a variant fault, settled when the round it
// leaves completes — here, if the departure completes it.
func (l *lane) depart(v *variantRT) {
	l.mu.Lock()
	l.down |= v.bit
	if l.completeLocked() {
		l.claimLocked()
		l.mu.Unlock()
		l.pass()
	} else {
		l.mu.Unlock()
	}
	if l.sys.alive.Add(-1) == 0 {
		close(l.sys.exited)
	}
}

// drop removes an evicted variant from the lane's gathering round: a
// parked arrival of it is answered Killed. It reports whether the
// eviction completed the round, which it then claims for the evicting
// goroutine to pass on. Caller holds the system mu.
func (l *lane) drop(variant int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if m := l.slots[variant]; m != nil {
		l.slots[variant] = nil
		l.arrived &^= 1 << uint(variant)
		m.reply <- sys.Reply{Killed: true}
	}
	if !l.completeLocked() {
		return false
	}
	l.claimLocked()
	return true
}

// retireLocked retires the lane: arrivals parked in the gathering
// round are answered Killed and every later syscall is too. Run's wait
// is released now, or by the claim holder's release. Caller holds mu.
func (l *lane) retireLocked() {
	l.retired = true
	for i, m := range l.slots {
		if m != nil {
			l.slots[i] = nil
			m.reply <- sys.Reply{Killed: true}
		}
	}
	l.arrived = 0
	if !l.busy && !l.finished {
		l.finished = true
		l.sys.running.Done()
	}
}

// watch is the group's stall watchdog, run every Timeout by one timer
// for all lanes. A lane whose partly gathered round made no progress
// since the previous firing has a stalled variant, so a stall is
// detected between one and two Timeouts after the lane's last
// rendezvous, never sooner — and no rendezvous touches a timer.
func (s *system) watch() {
	for k := 0; ; k++ {
		s.mu.Lock()
		if k == len(s.lanes) {
			if !s.over {
				s.watchdog.Reset(s.cfg.Timeout)
			}
			s.mu.Unlock()
			return
		}
		l := s.lanes[k]
		s.mu.Unlock()
		if i, downs, ok := l.stalled(); ok {
			l.unstall(i, downs)
		}
	}
}

// stalled is the watchdog's look at one lane. When the lane's round is
// partly gathered and made no progress since the previous firing, it
// claims the lane and reports the lowest missing variant and the
// departed variants below it.
func (l *lane) stalled() (missing int, downs uint64, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.busy || l.retired {
		// A running round may block (Accept, Recv) for as long as its
		// clients take; the window restarts once it returns.
		l.seen = -1
		return 0, 0, false
	}
	g := l.sys.evicted.Load()
	gap := l.all &^ (l.arrived | l.down | g)
	if gap == 0 || (l.arrived|l.down)&^g == 0 || l.rendezvous != l.seen {
		l.seen = l.rendezvous
		return 0, 0, false
	}
	l.busy = true
	l.syncLive(g)
	missing = bits.TrailingZeros64(gap)
	return missing, l.down &^ g & (1<<uint(missing) - 1), true
}

// unstall settles a stall the watchdog claimed, in the order a gather
// loop meets the variants: the departed variants below the stalled one
// first, then the stalled one — each evicted when the quorum allows,
// otherwise the group dies.
func (l *lane) unstall(missing int, downs uint64) {
	for f := downs; f != 0; f &= f - 1 {
		i := bits.TrailingZeros64(f)
		if l.dead&(1<<uint(i)) == 0 && !l.fault(i, FaultCrash, l.variants[i].exitDetail(), nil) {
			l.release(true)
			return
		}
	}
	detail := fmt.Sprintf("variant %d did not reach rendezvous within %v", missing, l.sys.cfg.Timeout)
	l.release(!l.fault(missing, FaultStall, detail, nil))
}
