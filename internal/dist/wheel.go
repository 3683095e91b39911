package dist

// wheel.go: a hierarchical timing wheel for the sharded runtime.
//
// One time.Timer per node would put 10^6 timers on the Go runtime's timer
// heaps at 10^6 nodes. A shard instead owns ONE wheel and schedules all of
// its nodes' deadlines (gossip clocks and lock-slot protocol deadlines) as
// intrusive list entries in O(1), paying one coarse time.Timer per shard
// loop to pace wheel advancement.
//
// Design (classic hashed hierarchical wheel, Varghese & Lauck):
//
//   - Time is quantised into ticks of w.tick nanoseconds. w.cur is the
//     absolute tick index with the invariant "every timer due at a slot
//     <= cur has already fired".
//   - Level 0 holds timers due within the next 256 ticks, indexed by
//     slot&255. Levels 1 and 2 hold timers due within 256^2 and 256^3
//     ticks, hashed by higher slot bits; an overflow list catches the
//     rest. When cur crosses a 256-boundary the matching level-1 slot
//     cascades down (and level 2 / overflow at the wider boundaries), so
//     every timer reaches level 0 before it is due.
//   - Timers in one slot fire in FIFO insertion order, and cascading
//     preserves that order, so two timers scheduled for the same tick fire
//     in the order they were scheduled.
//   - A timer scheduled for the past (or for the current tick) lands at
//     cur+1: zero-delay timers fire on the NEXT advance, never recursively
//     inside schedule. This mirrors time.AfterFunc(0, ...) running the
//     callback asynchronously rather than inline.
//
// The wheel is single-owner: exactly one shard loop goroutine may call
// schedule/cancel/advance. That is what makes cancel-after-fire trivially
// safe — a fired timer has t.list == nil, so a late cancel is a no-op, and
// there is no window where a concurrent fire could resurrect it.

const (
	wheelBits  = 8
	wheelSlots = 1 << wheelBits // 256 slots per level
	wheelMask  = wheelSlots - 1
)

// timerKind says what a fired timer means to the shard loop.
type timerKind uint8

const (
	tkClock timerKind = iota // node's Poisson gossip clock
	tkProto                  // node's lock-slot deadline (initiator timeout or responder resend)
)

// wheelTimer is an intrusive doubly-linked timer. The shard embeds two per
// node (clock + protocol) in flat slices, so scheduling allocates nothing.
type wheelTimer struct {
	next, prev *wheelTimer
	list       *wheelList // owning slot list; nil when not scheduled
	when       int64      // absolute deadline, ns
	node       int32      // absolute node id
	kind       timerKind
}

// scheduledIn reports whether the timer is currently pending.
func (t *wheelTimer) scheduledIn() bool { return t.list != nil }

// wheelList is one slot's FIFO of timers (push at tail, fire from head).
type wheelList struct {
	head, tail *wheelTimer
}

func (l *wheelList) push(t *wheelTimer) {
	t.next = nil
	t.prev = l.tail
	if l.tail != nil {
		l.tail.next = t
	} else {
		l.head = t
	}
	l.tail = t
	t.list = l
}

func (l *wheelList) remove(t *wheelTimer) {
	if t.prev != nil {
		t.prev.next = t.next
	} else {
		l.head = t.next
	}
	if t.next != nil {
		t.next.prev = t.prev
	} else {
		l.tail = t.prev
	}
	t.next, t.prev, t.list = nil, nil, nil
}

// detach empties the list and returns its old head; links between the
// returned timers are left intact for the caller to walk.
func (l *wheelList) detach() *wheelTimer {
	h := l.head
	l.head, l.tail = nil, nil
	return h
}

type wheel struct {
	tick     int64 // ns per slot
	cur      int64 // absolute slot index; slots <= cur have fired
	levels   [3][wheelSlots]wheelList
	overflow wheelList
	pending  int // scheduled-but-unfired timer count
}

func newWheel(tickNs, nowNs int64) *wheel {
	if tickNs <= 0 {
		panic("dist: wheel tick must be positive")
	}
	return &wheel{tick: tickNs, cur: nowNs / tickNs}
}

// schedule (re)schedules t for absolute time whenNs. A past or current-tick
// deadline fires on the next advance.
func (w *wheel) schedule(t *wheelTimer, whenNs int64) {
	if t.list != nil {
		t.list.remove(t)
		w.pending--
	}
	t.when = whenNs
	w.place(t, w.cur+1)
	w.pending++
}

// cancel removes t if pending. Cancelling a fired (or never-scheduled)
// timer is a no-op.
func (w *wheel) cancel(t *wheelTimer) {
	if t.list == nil {
		return
	}
	t.list.remove(t)
	w.pending--
}

// place links t into the level whose span covers its deadline. minSlot
// floors the target slot: cur+1 for fresh schedules (the current slot
// already fired), cur during cascade (the current slot is about to fire).
func (w *wheel) place(t *wheelTimer, minSlot int64) {
	slot := t.when / w.tick
	if slot < minSlot {
		slot = minSlot
	}
	switch d := slot - w.cur; {
	case d < wheelSlots:
		w.levels[0][slot&wheelMask].push(t)
	case d < wheelSlots*wheelSlots:
		w.levels[1][(slot>>wheelBits)&wheelMask].push(t)
	case d < wheelSlots*wheelSlots*wheelSlots:
		w.levels[2][(slot>>(2*wheelBits))&wheelMask].push(t)
	default:
		w.overflow.push(t)
	}
}

// advance fires every timer due at or before nowNs, in slot order and FIFO
// within a slot. fire may schedule, reschedule, or cancel timers (including
// the one being fired, which is already detached).
func (w *wheel) advance(nowNs int64, fire func(*wheelTimer)) {
	target := nowNs / w.tick
	for w.cur < target {
		w.cur++
		if w.cur&wheelMask == 0 {
			w.cascade(1, int((w.cur>>wheelBits)&wheelMask))
			if (w.cur>>wheelBits)&wheelMask == 0 {
				w.cascade(2, int((w.cur>>(2*wheelBits))&wheelMask))
				w.recheckOverflow()
			}
		}
		l := &w.levels[0][w.cur&wheelMask]
		for t := l.head; t != nil; t = l.head {
			l.remove(t)
			w.pending--
			fire(t)
		}
	}
}

// cascade re-places every timer hashed into the given upper-level slot; all
// of them are now within the span of a lower level. minSlot is cur (not
// cur+1): a cascaded timer due exactly at the slot being entered lands in
// level 0 at cur and fires in this same advance step.
func (w *wheel) cascade(level, idx int) {
	t := w.levels[level][idx].detach()
	for t != nil {
		next := t.next
		t.next, t.prev, t.list = nil, nil, nil
		w.place(t, w.cur)
		t = next
	}
}

func (w *wheel) recheckOverflow() {
	t := w.overflow.detach()
	for t != nil {
		next := t.next
		t.next, t.prev, t.list = nil, nil, nil
		w.place(t, w.cur)
		t = next
	}
}
