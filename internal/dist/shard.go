// Package dist is the decentralized counterpart of internal/sim: instead of
// an event loop mutating shared state, every graph node owns its value,
// drives itself with a private exponential clock, and negotiates pairwise
// exchanges with its neighbours by message passing, over mailboxes that
// can be made deliberately unreliable (ClusterConfig.Drop and Delay).
//
// The runtime exists to back the paper's Section 1 claim that Algorithm A
// is *decentralized*: the same local rules the simulator applies centrally
// (vanilla averaging plus the rare non-convex cut swap) run here as a
// message-passing protocol whose per-pair atomicity is enforced by a
// lock/propose-commit/ack handshake (machine.go), not by a global event
// queue. cmd/distrun drives the runtime from the command line.
//
// The protocol is a pure state machine (Machine, NodeState) with two
// drivers: ShardRuntime, the live runtime in this file, and the model
// checker in internal/check. Both move a node only through Machine.Step,
// which also records the step in the flight recorder, and both run the
// same Rule values; they differ only in timing and transport. The
// lockstep test in shard_test.go replays the live runtime's recorded
// steps through fresh NodeStates and proves the runtime adds no hidden
// state.
//
// The timing model matches internal/sim exactly in distribution: node u
// initiates at Poisson rate deg(u)/2 over a uniform incident edge, which
// superposes to an independent rate-1 clock per edge — the paper's model.
// One simulated time unit is ClusterConfig.TimeScale of wall-clock time.
//
// Key types: ShardRuntime, Rule (VanillaRule, SparseCutRule), Machine.
// The protocol is DESIGN.md §5, fault injection §5.4, the runtime §14.
package dist

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sparsecut/internal/flight"
	"sparsecut/internal/graph"
	"sparsecut/internal/metrics"
	"sparsecut/internal/rng"
)

// ClusterConfig holds the protocol, fault-injection and instrumentation
// settings of a ShardRuntime (embedded in ShardRuntimeConfig). TimeScale,
// Seed, Drop and Delay are the knobs experiments use; the remaining fields
// tune the protocol and default sensibly from TimeScale.
type ClusterConfig struct {
	// TimeScale is the wall-clock duration of one simulated time unit
	// (default 4ms). Smaller is faster but leaves less headroom between
	// the mean clock gap and message latency.
	TimeScale time.Duration
	// Seed drives every clock and edge choice, and the loss and latency
	// draws.
	Seed uint64
	// Drop is the probability in [0, 1) that a protocol message is lost
	// in transit, drawn independently per message (0 = no loss).
	Drop float64
	// Delay is the maximum per-message latency: each message is held by
	// its sending shard for an independent uniform time in [0, Delay)
	// before it reaches its destination mailbox, so messages may reorder
	// (0 = none). A release can run up to one timer-wheel tick late.
	Delay time.Duration
	// LockTimeout bounds how long an initiator waits for a proposal
	// before aborting (default TimeScale/4, at least 1ms and four wheel
	// ticks). It must comfortably exceed the worst-case message round
	// trip — a proposal arriving after the timeout is refused as stale,
	// so with LockTimeout below the typical latency (e.g. 3·Delay)
	// essentially no exchange commits.
	// The proposal retransmission lease is half the lock timeout.
	LockTimeout time.Duration
	// Metrics, when non-nil, receives the runtime's telemetry: exchange
	// counters (proposed/committed/aborted), per-kind message counters, a
	// committed-exchange latency histogram, per-shard throughput and
	// mailbox depth, the rule's tick/swap counters and the
	// loss/latency/congestion counters (see metrics.go for the full name
	// list). nil disables telemetry at near-zero hot-path cost. Use one
	// registry per runtime.
	Metrics *metrics.Registry
	// Flight, when non-nil, receives the runtime's causal flight records:
	// every protocol step, message send/receive, network drop and timer
	// fire, ready for flight.Stitch to reconstruct per-exchange span trees
	// (see internal/flight and cmd/tracez). nil disables the recorder at
	// one pointer test per step. Like Metrics, use one
	// recorder per runtime, sized with at least NumNodes rings.
	Flight *flight.Recorder
}

// nodeEvent is one recorded protocol step (lockstep test plumbing; see
// ShardRuntime.tap).
type nodeEvent struct {
	node int
	in   StepIn
	out  StepOut
}

// ShardRuntime runs a Rule as a real concurrent message-passing system on a
// graph: N nodes multiplexed over S shard event loops, each stepping the
// pure Machine for its nodes. Construct with NewShardRuntime, drive with
// Run. The observable accessors (Mean, Variance, Values, Exchanges,
// Aborted, ...) must not be called while a Run is in progress.
//
// The per-node costs are amortised per shard, which is what lets one box
// run 10^6 nodes:
//
//   - one goroutine per SHARD;
//   - one hierarchical timer wheel per shard (wheel.go) for every node's
//     clock and protocol deadline;
//   - one batched mailbox per shard, drained a batch per loop iteration;
//   - one exchange ledger per shard, written only by its loop; the
//     runtime's totals are sums over the shards.
//
// Each shard owns the contiguous node range [lo, hi): their NodeStates,
// their clock/protocol timers, and one RNG stream. Within a shard, steps
// are sequential — single-owner state, no locks on the protocol hot path.
// Across shards, only messages move.
//
// # Delivery
//
// A send appends to the destination shard's mailbox under a short mutex; a
// full mailbox drops the message as congestion loss. Fault injection sits
// on the same path, in the sending shard: ClusterConfig.Drop loses a
// message before it is posted, and ClusterConfig.Delay holds it in the
// shard's own due-time heap until its sampled latency has passed. Both
// draw from a per-shard fault stream the shard loop owns, so neither takes
// a lock; with Drop and Delay zero a send posts at once.
//
// # Timing model
//
// Node u initiates at Poisson rate deg(u)/2 in simulated time, scaled by
// TimeScale, over a uniformly random incident edge, so edge {u,v} is
// initiated at total rate deg(u)/2·1/deg(u) + deg(v)/2·1/deg(v) = 1 —
// exactly the rate-1 independent edge clocks of internal/sim, so
// simulator horizons and runtime durations are directly comparable. A
// clock fire while the node is locked is skipped, like a simulator tick
// on a busy pair; the clock keeps running.
//
// Timer deadlines are quantised to the wheel tick, TimeScale/16 clamped to
// [50µs, 1ms], which is chosen (and floored) to be much finer than the
// lock timeout, so quantisation shifts deadlines by at most one tick
// without reordering the protocol's coarse time constants. The
// messages a fire sends are delivered before the next fire in the same
// tick: a same-shard exchange resolves at once instead of colliding with
// the other initiations due in that tick.
//
// The runtime injects only the faults ClusterConfig asks for: loss, delay
// and mailbox congestion. Crash and recovery are steps of the Machine,
// which the model checker explores (mcheck -crash, FuzzSchedule).
type ShardRuntime struct {
	g      *graph.Graph
	rule   Rule
	cfg    ShardRuntimeConfig
	values []float64

	lockTimeout time.Duration
	resendEvery time.Duration
	timerTick   time.Duration
	shardSize   int // nodes per shard (last shard may be smaller)
	shards      []*shard

	// epoch numbers the Runs; messages carry it so leftovers stranded in
	// mailboxes across a run boundary are recognised and dropped. Written
	// only by Run before the shard goroutines start, into mc.Epoch.
	epoch uint64
	mc    Machine
	// tap, when non-nil, observes every protocol event of every node (the
	// lockstep equivalence test sets it). Must be safe for concurrent use.
	tap func(nodeEvent)

	running atomic.Bool
	wg      sync.WaitGroup

	// met is the telemetry plane; all fields nil (every hook a no-op)
	// unless ClusterConfig.Metrics was set.
	met clusterMetrics
	// rec is the flight recorder (nil = disabled); see flight.go.
	rec *flight.Recorder
}

// ShardRuntimeConfig configures a ShardRuntime: the protocol settings of
// the embedded ClusterConfig plus the shard layout.
type ShardRuntimeConfig struct {
	ClusterConfig

	// Shards is the number of event loops. 0 = GOMAXPROCS, clamped to the
	// node count.
	Shards int
	// MailboxCap is the per-shard mailbox capacity; messages beyond it are
	// dropped as congestion loss. 0 = max(1024, 4·nodes/shards).
	MailboxCap int
}

// shard is one event loop: the states, timers and mailbox of nodes
// [lo, hi), the messages they sent that are still in flight under
// ClusterConfig.Delay, and their share of the exchange ledger. All fields
// except the mailbox and the ledger are owned by the loop goroutine.
type shard struct {
	rt     *ShardRuntime
	id     int
	lo, hi int

	states []NodeState
	clocks []wheelTimer // one per node, kind tkClock
	protos []wheelTimer // one per node, kind tkProto: the lock slot's deadline
	r      *rng.RNG
	w      *wheel
	// fault draws loss and latency for this shard's sends; nil when Drop
	// and Delay are both zero.
	fault *rng.RNG
	held  heldQueue // delayed sends not yet due

	inbox mailbox
	wakeC chan struct{}
	batch []Message

	draining bool

	led ledger
}

// ledger is one shard's share of the exchange ledger. Its one writer is
// the shard loop; Run's drain poll, the accessors and the metrics
// snapshots read it atomically, summing over the shards. At quiescence
// proposed == applied + aborted (every initiation resolved exactly one
// way) and applied == committed (every applied initiator half has a
// committed responder half, the no-half-exchange guarantee the settle
// pass enforces), summed over the shards; cmd/distrun -assert checks both.
type ledger struct {
	// proposed, applied and aborted count the shard's initiations and how
	// they resolved; committed counts its responders' commits.
	proposed, applied, aborted, committed atomic.Int64
	// awaiting and pending count the shard's outstanding initiations and
	// held proposals. An initiation and a proposal resolve at the node
	// that made them, so neither count goes below zero.
	awaiting, pending atomic.Int64
	// dropped and delayed count the shard's sends lost to
	// ClusterConfig.Drop or held for ClusterConfig.Delay; congested counts
	// its sends refused by a full mailbox.
	dropped, delayed, congested atomic.Int64
}

// mailbox is a shard's batched MPSC queue: producers append under
// a mutex, the owning shard swaps the whole backlog out in O(1) and
// processes it as a batch. A full mailbox drops (congestion loss).
type mailbox struct {
	mu  sync.Mutex
	q   []Message
	cap int
}

func (mb *mailbox) put(m Message) bool {
	mb.mu.Lock()
	if len(mb.q) >= mb.cap {
		mb.mu.Unlock()
		return false
	}
	mb.q = append(mb.q, m)
	mb.mu.Unlock()
	return true
}

// drainSwap exchanges the queued backlog for spare (an empty buffer the
// caller owns) and returns it — no per-message copying under the lock.
func (mb *mailbox) drainSwap(spare []Message) []Message {
	mb.mu.Lock()
	q := mb.q
	if len(q) == 0 {
		mb.mu.Unlock()
		return spare[:0]
	}
	mb.q = spare[:0]
	mb.mu.Unlock()
	return q
}

func (mb *mailbox) depth() int {
	mb.mu.Lock()
	d := len(mb.q)
	mb.mu.Unlock()
	return d
}

// heldMsg is a delayed message and the wall-clock time it is due.
type heldMsg struct {
	dueNs int64
	m     Message
}

// heldQueue is a binary min-heap of delayed messages on due time, owned by
// the sending shard's loop. It is written out rather than built on
// container/heap, whose interface boxing would allocate per message.
type heldQueue []heldMsg

func (q *heldQueue) push(h heldMsg) {
	a := append(*q, h)
	for i := len(a) - 1; i > 0; {
		p := (i - 1) / 2
		if a[p].dueNs <= a[i].dueNs {
			break
		}
		a[p], a[i] = a[i], a[p]
		i = p
	}
	*q = a
}

// popDue removes and returns the earliest message if it is due at nowNs.
func (q *heldQueue) popDue(nowNs int64) (Message, bool) {
	a := *q
	if len(a) == 0 || a[0].dueNs > nowNs {
		return Message{}, false
	}
	m := a[0].m
	n := len(a) - 1
	a[0] = a[n]
	a = a[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && a[c+1].dueNs < a[c].dueNs {
			c++
		}
		if a[i].dueNs <= a[c].dueNs {
			break
		}
		a[i], a[c] = a[c], a[i]
		i = c
	}
	*q = a
	return m, true
}

// NewShardRuntime builds a sharded runtime for rule on g with initial
// values x0 (copied).
func NewShardRuntime(g *graph.Graph, x0 []float64, rule Rule, cfg ShardRuntimeConfig) (*ShardRuntime, error) {
	if g == nil || g.NumNodes() == 0 {
		return nil, errors.New("dist: shard runtime requires a non-empty graph")
	}
	if g.NumEdges() == 0 {
		return nil, fmt.Errorf("dist: %s has no edges to exchange over", g)
	}
	if len(x0) != g.NumNodes() {
		return nil, fmt.Errorf("dist: %d initial values for %d nodes", len(x0), g.NumNodes())
	}
	if rule == nil {
		return nil, errors.New("dist: shard runtime requires a rule")
	}
	if cfg.TimeScale < 0 || cfg.LockTimeout < 0 || cfg.Delay < 0 {
		return nil, errors.New("dist: negative durations in config")
	}
	if !(cfg.Drop >= 0 && cfg.Drop < 1) {
		return nil, fmt.Errorf("dist: drop rate %v outside [0,1)", cfg.Drop)
	}
	if cfg.Shards < 0 || cfg.MailboxCap < 0 {
		return nil, errors.New("dist: negative shard parameters in config")
	}
	if cfg.TimeScale == 0 {
		cfg.TimeScale = 4 * time.Millisecond
	}
	n := g.NumNodes()
	nShards := cfg.Shards
	if nShards == 0 {
		nShards = runtime.GOMAXPROCS(0)
	}
	if nShards > n {
		nShards = n
	}

	rt := &ShardRuntime{
		g:      g,
		rule:   rule,
		cfg:    cfg,
		values: append([]float64(nil), x0...),
	}
	// The wheel tick: protocol deadlines are quantised up to the next one.
	rt.timerTick = min(max(cfg.TimeScale/16, 50*time.Microsecond), time.Millisecond)
	rt.lockTimeout = cfg.LockTimeout
	if rt.lockTimeout == 0 {
		rt.lockTimeout = cfg.TimeScale / 4
		if rt.lockTimeout < time.Millisecond {
			rt.lockTimeout = time.Millisecond
		}
		// A deadline under a few ticks would time out exchanges that are
		// merely waiting for the next wheel advance.
		if rt.lockTimeout < 4*rt.timerTick {
			rt.lockTimeout = 4 * rt.timerTick
		}
	}
	rt.resendEvery = rt.lockTimeout / 2
	if rt.resendEvery <= 0 {
		rt.resendEvery = rt.lockTimeout
	}
	rt.mc = Machine{
		G:             g,
		Rule:          rule,
		LockTimeoutNs: rt.lockTimeout.Nanoseconds(),
		ResendEveryNs: rt.resendEvery.Nanoseconds(),
	}

	// Contiguous equal ranges (the last shard takes the remainder) so that
	// shardOf is one integer division, with no lookup table on the Send
	// path.
	rt.shardSize = (n + nShards - 1) / nShards
	nShards = (n + rt.shardSize - 1) / rt.shardSize
	mboxCap := cfg.MailboxCap
	if mboxCap == 0 {
		mboxCap = 4 * rt.shardSize
		if mboxCap < 1024 {
			mboxCap = 1024
		}
	}
	root := rng.New(cfg.Seed)
	rt.shards = make([]*shard, nShards)
	for i := range rt.shards {
		lo := i * rt.shardSize
		hi := lo + rt.shardSize
		if hi > n {
			hi = n
		}
		s := &shard{
			rt:     rt,
			id:     i,
			lo:     lo,
			hi:     hi,
			states: make([]NodeState, hi-lo),
			clocks: make([]wheelTimer, hi-lo),
			protos: make([]wheelTimer, hi-lo),
			r:      root.Split(),
			wakeC:  make(chan struct{}, 1),
		}
		s.inbox.cap = mboxCap
		for li := range s.states {
			s.states[li] = NodeState{ID: lo + li, X: x0[lo+li]}
		}
		rt.shards[i] = s
	}
	// The fault streams split off after every clock stream, so turning
	// fault injection on leaves the clock draws unchanged.
	if cfg.Drop > 0 || cfg.Delay > 0 {
		for _, s := range rt.shards {
			s.fault = root.Split()
		}
	}
	if cfg.Metrics != nil {
		rt.instrument(cfg.Metrics)
	}
	rt.rec = cfg.Flight
	return rt, nil
}

// shardOf returns the shard owning node abs.
func (rt *ShardRuntime) shardOf(abs int) int { return abs / rt.shardSize }

// stateOf returns node abs's state. Safe only while no shard loop runs.
func (rt *ShardRuntime) stateOf(abs int) *NodeState {
	s := rt.shards[rt.shardOf(abs)]
	return &s.states[abs-s.lo]
}

// Run executes the protocol for the given duration in simulated time units
// (wall time duration·TimeScale), or until ctx is cancelled, whichever is
// first. Shutdown is deterministic and loss-proof: after the horizon the
// shards drain — no new initiations or proposals, but retransmission
// continues — until every in-flight exchange has resolved, so the value sum
// is preserved exactly across the run boundary. Run may be called again to
// continue from the current values.
//
// A Run the caller cut short returns ctx.Err() (context.Canceled or
// context.DeadlineExceeded) after the same full drain, so the values
// remain consistent and the runtime stays usable. A nil return means the
// horizon was reached and every exchange resolved.
func (rt *ShardRuntime) Run(ctx context.Context, duration float64) error {
	if !(duration > 0) || math.IsInf(duration, 0) {
		return fmt.Errorf("dist: duration %v must be positive and finite", duration)
	}
	if duration*float64(rt.cfg.TimeScale) >= float64(math.MaxInt64) {
		// Would overflow time.Duration and silently become an instant
		// no-op run via a negative context deadline.
		return fmt.Errorf("dist: duration %v at time scale %v exceeds the representable wall time", duration, rt.cfg.TimeScale)
	}
	if !rt.running.CompareAndSwap(false, true) {
		return errors.New("dist: Run already in progress")
	}
	defer rt.running.Store(false)

	wall := time.Duration(duration * float64(rt.cfg.TimeScale))
	runCtx, cancel := context.WithTimeout(ctx, wall)
	defer cancel()

	drainC := make(chan struct{})
	stopC := make(chan struct{})
	var drainWG sync.WaitGroup
	rt.epoch++
	rt.mc.Epoch = rt.epoch
	start := time.Now()
	// Reset sequentially, launch after: a shard must never observe a
	// peer's pre-reset state through an early message.
	for _, s := range rt.shards {
		s.resetForRun(start)
	}
	for _, s := range rt.shards {
		rt.wg.Add(1)
		drainWG.Add(1)
		go s.loop(drainC, stopC, &drainWG)
	}

	<-runCtx.Done()

	// Drain. Once every shard has acknowledged the drain signal (drainWG),
	// no node will initiate or propose again, so each shard's awaiting and
	// pending counts can only fall. A poll that reads them all zero has
	// found a stable global quiescence point: every exchange has fully
	// resolved.
	close(drainC)
	drainWG.Wait()
	for rt.outstanding() != 0 {
		time.Sleep(100 * time.Microsecond)
	}
	close(stopC)
	rt.wg.Wait()

	rt.settle()
	for _, s := range rt.shards {
		for li := range s.states {
			rt.values[s.lo+li] = s.states[li].X
		}
	}
	return ctx.Err() // non-nil if the caller cut the run short; state is still consistent
}

// settle is the last line of fault recovery, run after the drain with
// every shard loop stopped. The drain ends only at quiescence, so it
// normally finds nothing; should a proposal ever be left held, it is
// resolved the way its initiator already decided. No loop runs, so
// cross-shard state reads are safe: if the initiator applied it (+delta
// landed but the COMMIT was lost; the watermark equals its seq exactly,
// as in Deliver), land the responder's half; otherwise nothing was
// applied anywhere and the proposal is discarded. A held proposal below
// the watermark is an aborted initiation that came back and was never
// applied (see MutLaxWatermarkDedup). Either way the sum stays exact, and
// every lock slot ends clear.
func (rt *ShardRuntime) settle() {
	for _, s := range rt.shards {
		for li := range s.states {
			st := &s.states[li]
			if l := st.Lock; l.Role == RoleResponder && rt.stateOf(int(l.Peer)).LastApplied[st.ID] == l.Seq {
				st.X -= l.D
				s.led.committed.Add(1)
			}
			st.Lock = LockSlot{}
		}
		s.led.awaiting.Store(0)
		s.led.pending.Store(0)
	}
}

// resetForRun reinstalls the run's initial values, rebuilds the wheel,
// re-arms every clock, and discards the delayed messages an earlier run
// left in flight. Called by Run, before the loop goroutines start.
func (s *shard) resetForRun(start time.Time) {
	rt := s.rt
	s.draining = false
	s.held = s.held[:0]
	s.w = newWheel(rt.timerTick.Nanoseconds(), start.UnixNano())
	for li := range s.states {
		st := &s.states[li]
		st.X = rt.values[s.lo+li]
		st.Lock = LockSlot{}
		s.clocks[li] = wheelTimer{node: int32(s.lo + li), kind: tkClock}
		s.protos[li] = wheelTimer{node: int32(s.lo + li), kind: tkProto}
		s.scheduleClock(li, start)
	}
}

// scheduleClock draws node lo+li's next Poisson fire: an Exp(deg/2) gap in
// simulated time, scaled to wall time and added to now. An isolated
// node has no edges to tick and its clock never fires (its value simply
// never changes, as in the simulator).
func (s *shard) scheduleClock(li int, now time.Time) {
	deg := s.rt.g.Degree(graph.NodeID(s.lo + li))
	if deg == 0 {
		return
	}
	gap := s.r.ExpFloat64(float64(deg)/2) * float64(s.rt.cfg.TimeScale)
	s.w.schedule(&s.clocks[li], now.Add(time.Duration(gap)).UnixNano())
}

// loop is the shard body: drain a batch of messages, advance the wheel,
// then sleep until woken by a producer, the next tick, or shutdown.
func (s *shard) loop(drainC, stopC <-chan struct{}, drainWG *sync.WaitGroup) {
	defer s.rt.wg.Done()
	tick := time.NewTimer(s.rt.timerTick)
	defer tick.Stop()
	for {
		busy := s.drainMessages() > 0
		s.w.advance(time.Now().UnixNano(), s.fire)

		// Control signals are polled every iteration so a saturated shard
		// still acknowledges drain/stop promptly.
		select {
		case <-stopC:
			return
		case <-drainC:
			s.enterDrain()
			drainC = nil
			drainWG.Done()
			continue
		default:
		}
		if busy {
			continue
		}

		if !tick.Stop() {
			select {
			case <-tick.C:
			default:
			}
		}
		tick.Reset(s.rt.timerTick)
		select {
		case <-stopC:
			return
		case <-drainC:
			s.enterDrain()
			drainC = nil
			drainWG.Done()
		case <-s.wakeC:
		case <-tick.C:
		}
	}
}

// drainMessages posts the shard's delayed sends that are due, then
// processes its mailbox backlog as one batch and returns how many messages
// it handled. It runs at the top of every loop iteration and after every
// clock fire, so a release waits neither for the next iteration nor for
// the rest of a wheel advance.
func (s *shard) drainMessages() int {
	now := time.Now()
	if len(s.held) > 0 {
		s.releaseDue(now.UnixNano())
	}
	s.batch = s.inbox.drainSwap(s.batch)
	for _, m := range s.batch {
		s.step(m.To, StepIn{Kind: StepDeliver, Msg: m}, now)
	}
	return len(s.batch)
}

// fire dispatches one expired wheel timer.
func (s *shard) fire(t *wheelTimer) {
	abs := int(t.node)
	now := time.Now()
	switch t.kind {
	case tkClock:
		s.fireClock(abs, now)
	case tkProto:
		s.fireProto(abs, now)
	}
}

func (s *shard) fireClock(abs int, now time.Time) {
	if s.draining {
		return // drain cancelled the clocks; a stray fire re-arms nothing
	}
	li := abs - s.lo
	if !s.states[li].Locked() {
		adj := s.rt.g.Neighbors(graph.NodeID(abs))
		s.step(abs, StepIn{Kind: StepInitiate, He: adj[s.r.Intn(len(adj))]}, now)
	}
	// A fire while locked is skipped but the clock keeps running.
	s.scheduleClock(li, now)
	// Deliver what this fire set in motion before the next clock due in
	// the same wheel tick fires: a same-shard exchange then resolves
	// LOCK→PROPOSE→COMMIT here, instead of every node due in the tick
	// locking itself as an initiator first and NACKing its peers' LOCKs.
	for s.drainMessages() > 0 {
	}
}

// fireProto services a node's protocol deadline: the lock slot's DueNs,
// a lock timeout for an initiator and a resend lease for a responder. A
// node holds one slot, so one timer per node covers both roles; armProto
// keeps it pointed at the slot's deadline.
func (s *shard) fireProto(abs int, now time.Time) {
	li := abs - s.lo
	l := &s.states[li].Lock
	if now.UnixNano() >= l.DueNs {
		switch l.Role {
		case RoleInitiator:
			s.step(abs, StepIn{Kind: StepTimeout}, now)
		case RoleResponder:
			s.step(abs, StepIn{Kind: StepResend}, now)
		}
	}
	// Quantisation can fire a slot before the deadline's sub-tick offset;
	// re-arm for the next tick in that case (armProto is idempotent).
	s.armProto(li)
}

// enterDrain is the shard's drain transition: its nodes stop initiating.
func (s *shard) enterDrain() {
	s.draining = true
	for li := range s.clocks {
		s.w.cancel(&s.clocks[li])
	}
}

// step feeds one protocol event, stamped with the shard's clock and drain
// phase, to the machine (which records it in the flight recorder), then
// routes its effects into the lockstep tap, the shard's ledger and the
// mailboxes.
func (s *shard) step(abs int, in StepIn, now time.Time) {
	rt := s.rt
	li := abs - s.lo
	st := &s.states[li]
	in.NowNs, in.Draining = now.UnixNano(), s.draining
	out := rt.mc.Step(st, in, rt.rec)
	if tap := rt.tap; tap != nil {
		tap(nodeEvent{node: abs, in: in, out: out})
	}
	s.applyOut(st, out, in.NowNs)
	s.armProto(li)
}

// armProto points the node's protocol timer at its lock slot's deadline,
// or cancels it when the node is unlocked.
func (s *shard) armProto(li int) {
	st := &s.states[li]
	t := &s.protos[li]
	if !st.Locked() {
		s.w.cancel(t)
		return
	}
	if when := st.Lock.DueNs; !t.scheduledIn() || t.when != when {
		s.w.schedule(t, when)
	}
}

// applyOut folds a StepOut into the shard's ledger and the telemetry, and
// sends its messages.
func (s *shard) applyOut(st *NodeState, out StepOut, nowNs int64) {
	led := &s.led
	if out.Proposed {
		led.awaiting.Add(1)
		led.proposed.Add(1)
	}
	if out.PendCreated {
		led.pending.Add(1)
	}
	if out.Applied {
		led.applied.Add(1)
	}
	if out.Applied || out.Aborted {
		led.awaiting.Add(-1)
	}
	if out.Aborted {
		led.aborted.Add(1)
	}
	if out.Committed || out.PendDropped {
		led.pending.Add(-1)
	}
	if out.Committed {
		led.committed.Add(1)
	}
	if out.Applied && out.LatencyNs >= 0 {
		if h := s.rt.met.latency; h != nil {
			h.Observe(out.LatencyNs)
		}
	}
	if m := out.Send[0]; m.Kind != 0 {
		s.send(m, nowNs)
	}
}

// send routes one outgoing message: lost with probability Drop, held for
// a uniform latency in [0, Delay) when Delay is set, and otherwise posted
// to the destination shard's mailbox at once.
func (s *shard) send(m Message, nowNs int64) {
	rt := s.rt
	rt.met.sent[m.Kind].Inc(s.id)
	if rec := rt.rec; rec != nil {
		rec.Record(msgRecord(flight.EvSend, m, m.From, nowNs))
	}
	if s.fault != nil {
		if rt.cfg.Drop > 0 && s.fault.Float64() < rt.cfg.Drop {
			s.led.dropped.Add(1)
			recordNetDrop(rt.rec, m, m.From, flight.ReasonLoss)
			return
		}
		if rt.cfg.Delay > 0 {
			s.led.delayed.Add(1)
			s.held.push(heldMsg{dueNs: nowNs + int64(s.fault.Float64()*float64(rt.cfg.Delay)), m: m})
			return
		}
	}
	s.post(m)
}

// releaseDue posts every held message that is due at nowNs.
func (s *shard) releaseDue(nowNs int64) {
	for {
		m, ok := s.held.popDue(nowNs)
		if !ok {
			return
		}
		s.post(m)
	}
}

// post appends m to its destination shard's mailbox and wakes that shard.
// A full mailbox drops m as congestion loss: blocking would let two shards
// with mutually full mailboxes deadlock, and the exchange protocol already
// recovers from the loss of any message.
func (s *shard) post(m Message) {
	rt := s.rt
	d := rt.shards[rt.shardOf(m.To)]
	if !d.inbox.put(m) {
		s.led.congested.Add(1)
		recordNetDrop(rt.rec, m, m.From, flight.ReasonCongestion)
		return
	}
	select {
	case d.wakeC <- struct{}{}:
	default:
	}
}

// Graph returns the runtime's graph.
func (rt *ShardRuntime) Graph() *graph.Graph { return rt.g }

// Rule returns the exchange rule in use.
func (rt *ShardRuntime) Rule() Rule { return rt.rule }

// Shards returns the number of shard event loops.
func (rt *ShardRuntime) Shards() int { return len(rt.shards) }

// Values returns a copy of the current value vector.
func (rt *ShardRuntime) Values() []float64 {
	return append([]float64(nil), rt.values...)
}

// Mean returns the current average value. Committed exchanges apply exact
// antisymmetric deltas, so the mean is invariant up to float rounding.
func (rt *ShardRuntime) Mean() float64 {
	if len(rt.values) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, v := range rt.values {
		s += v
	}
	return s / float64(len(rt.values))
}

// Variance returns the paper's varX of the current values.
func (rt *ShardRuntime) Variance() float64 {
	n := float64(len(rt.values))
	if n == 0 {
		return 0
	}
	m := rt.Mean()
	s := 0.0
	for _, v := range rt.values {
		d := v - m
		s += d * d
	}
	return s / n
}

// total sums one ledger field over the shards.
func (rt *ShardRuntime) total(field func(*ledger) *atomic.Int64) int64 {
	n := int64(0)
	for _, s := range rt.shards {
		n += field(&s.led).Load()
	}
	return n
}

// outstanding returns the initiations and held proposals not yet resolved.
func (rt *ShardRuntime) outstanding() int64 {
	return rt.total(func(l *ledger) *atomic.Int64 { return &l.awaiting }) +
		rt.total(func(l *ledger) *atomic.Int64 { return &l.pending })
}

// Exchanges returns the number of committed exchanges (counted at the
// responder's commit point).
func (rt *ShardRuntime) Exchanges() int64 {
	return rt.total(func(l *ledger) *atomic.Int64 { return &l.committed })
}

// Aborted returns the number of aborted initiation attempts: NACKed by a
// busy or draining peer, or timed out waiting for a proposal (lost LOCK,
// or a proposal so late that the initiator gave up and refused it — such
// an exchange commits nowhere).
func (rt *ShardRuntime) Aborted() int64 {
	return rt.total(func(l *ledger) *atomic.Int64 { return &l.aborted })
}

// Proposed returns the number of initiation attempts (LOCKs sent with a
// fresh seq). After every Run, Proposed() == Applied() + Aborted() — the
// exchange ledger cmd/distrun -assert checks.
func (rt *ShardRuntime) Proposed() int64 {
	return rt.total(func(l *ledger) *atomic.Int64 { return &l.proposed })
}

// Applied returns the number of exchanges whose initiator applied its half.
// After the settle pass this equals Exchanges(): no exchange ends
// half-applied.
func (rt *ShardRuntime) Applied() int64 {
	return rt.total(func(l *ledger) *atomic.Int64 { return &l.applied })
}

// Congested returns the number of messages dropped because the destination
// shard's mailbox was full.
func (rt *ShardRuntime) Congested() int64 {
	return rt.total(func(l *ledger) *atomic.Int64 { return &l.congested })
}

// Dropped returns the number of messages lost to ClusterConfig.Drop.
func (rt *ShardRuntime) Dropped() int64 {
	return rt.total(func(l *ledger) *atomic.Int64 { return &l.dropped })
}

// Delayed returns the number of messages held for a ClusterConfig.Delay
// latency (counted when held, whether or not their mailbox later had room).
func (rt *ShardRuntime) Delayed() int64 {
	return rt.total(func(l *ledger) *atomic.Int64 { return &l.delayed })
}
