package sim

import (
	"math/bits"
	"slices"
)

// The ladder calendar exploits the event-time locality of a packet-level
// simulation: almost every event is a wire or link completion a few µs out,
// with a thin far tail of RTO/keepalive timers. Events land in power-of-two
// time buckets and are only sorted — lazily, one bucket at a time — when the
// clock reaches them. Steady state costs O(1) amortized per event versus the
// heap's O(log n), and the sorted drain list makes same-tick batching free.
//
// Structure, earliest time at the bottom:
//
//	bottom  sorted drain list: the events of the bucket the clock is in,
//	        ascending (at, seq) behind a moving head cursor; the global
//	        minimum is bottom[head].
//	rungs   stack of bucket arrays. rungs[len-1] (deepest) covers the
//	        earliest window at the finest granularity; each shallower rung
//	        covers the window after its child at ~256× coarser granularity.
//	        A bucket is an intrusive list threaded through the entries'
//	        next/prev links, so a rung owns no per-bucket storage.
//	over    unsorted far-future band beyond the top rung's horizon.
//
// Ordering invariant: every event in rungs/over fires at or after botEnd,
// and bottom holds exactly the events before botEnd, kept sorted. Events at
// equal instants therefore always meet in bottom, where the (at, seq)
// comparison reproduces the heap's FIFO tie-break bit for bit.
const (
	ladderBuckets    = 256 // per rung; power of two
	ladderBucketMask = ladderBuckets - 1
	// ladderSprayThresh is the largest bucket sorted directly into bottom;
	// denser buckets are re-sprayed into a finer rung first so no single
	// sort exceeds ~threshold elements (unless granularity bottoms out
	// at 1 ns, where sorting is the only move left).
	ladderSprayThresh = 48
	// ladderMaxRungs caps spray recursion; beyond it buckets sort directly.
	ladderMaxRungs = 12
	// ladderDirectWindow bounds botEnd when a small overflow band is
	// sorted straight into bottom (no rung machinery). The bound is
	// load-bearing for speed, not just safety: it keeps parked far-future
	// entries (RTO, propagation tails) out of bottom, so the advancing
	// chain of near completions lands at the tail — a plain append — and
	// cancels hit the O(1) band instead of splicing the drain list.
	ladderDirectWindow = Duration(1e6) // 1 ms
	// ladderBottomSpill is the largest live drain list tolerated while no
	// rungs exist; past it the far half is demoted back to the overflow
	// band so a pathological single-window burst cannot make every splice
	// linear in the burst size.
	ladderBottomSpill = 64
)

// event.where values: which container an entry currently sits in.
const (
	locNone   int8 = iota
	locBottom      // ladder.bottom, position found by (at, seq) search; index pinned at 0
	locRung        // list rungs[lvl].head[bkt]; index pinned at 0
	locOver        // ladder.over, index = position
)

// rung is one tier of the ladder: up to 256 consecutive buckets of
// granularity 1<<shift ns. Bucket k (absolute index, k = at>>shift) lives in
// slot k&255; the window [curK, hiK) spans at most 256 buckets so slots are
// unique. curK only advances, and buckets behind it are always empty.
//
// A bucket is a doubly-linked list of its entries in insertion order, run
// through event.next/prev: the head's prev names the tail (so appends are
// O(1) without a tail array) and the tail's next is nil. Insert and cancel
// allocate nothing, and a drained rung keeps no backing storage.
type rung struct {
	shift uint  // bucket granularity = 1<<shift ns
	curK  int64 // next bucket index to consume; coverage = [curK, hiK)
	hiK   int64 // exclusive end of coverage, in bucket units
	count int   // events resident across all buckets
	occ   [ladderBuckets / 64]uint64
	head  [ladderBuckets]*event // first entry of each bucket's list
	n     [ladderBuckets]int32  // entries per bucket (the spray test)
}

// push appends ev to bucket s.
func (r *rung) push(s int, ev *event) {
	if h := r.head[s]; h == nil {
		r.head[s] = ev
		ev.prev = ev
		r.occ[s>>6] |= 1 << (uint(s) & 63)
	} else {
		t := h.prev
		t.next = ev
		ev.prev = t
		h.prev = ev
	}
	ev.next = nil
	r.n[s]++
	r.count++
}

// unlink removes ev from bucket s in O(1).
func (r *rung) unlink(s int, ev *event) {
	if h := r.head[s]; ev == h {
		if nx := ev.next; nx != nil {
			nx.prev = ev.prev
			r.head[s] = nx
		} else {
			r.head[s] = nil
			r.occ[s>>6] &^= 1 << (uint(s) & 63)
		}
	} else {
		ev.prev.next = ev.next
		if ev.next != nil {
			ev.next.prev = ev.prev
		} else {
			h.prev = ev.prev
		}
	}
	r.n[s]--
	r.count--
}

// take empties bucket s and returns its list, first entry first, for the
// caller to walk by next. Links left on an entry outside a rung are never
// read: push sets both before the entry joins another list.
func (r *rung) take(s int) *event {
	h := r.head[s]
	r.head[s] = nil
	r.count -= int(r.n[s])
	r.n[s] = 0
	r.occ[s>>6] &^= 1 << (uint(s) & 63)
	return h
}

// nextOccupied returns the smallest occupied bucket index >= curK. The
// caller guarantees count > 0. The occupancy bitmap is scanned in ring order
// from curK's slot; because the window holds at most 256 buckets, ring
// distance from curK's slot increases monotonically with bucket index.
func (r *rung) nextOccupied() int64 {
	start := uint(r.curK) & ladderBucketMask
	w := start >> 6
	word := r.occ[w] &^ (1<<(start&63) - 1)
	for {
		if word != 0 {
			slot := int(w<<6) + bits.TrailingZeros64(word)
			dist := (slot - int(start)) & ladderBucketMask
			return r.curK + int64(dist)
		}
		w = (w + 1) & (ladderBuckets/64 - 1)
		word = r.occ[w]
	}
}

// ladder is the calendar backend behind Engine when UseLadder is on. It
// stores the same pooled *event entries as the heap; only placement differs.
type ladder struct {
	// bottom is sorted ascending by (at, seq); the live window is
	// bottom[head:], so the minimum pops with a cursor bump and an insert
	// that lands after every live entry — the advancing-chain common case —
	// is a plain append. Entries before head are dead (nil); the prefix is
	// compacted once it dominates. An entry's index is its absolute slot.
	bottom []*event
	head   int
	botEnd Time     // exclusive: events before botEnd belong in bottom
	rungs  []*rung  // rungs[0] coarsest, last deepest (earliest window)
	over   []*event // unsorted, beyond the top rung's horizon
	size   int

	pool []*rung // retired rungs awaiting reuse

	// self-observation; lifetime counters survive Reset (see SchedStats)
	sorts     uint64
	sprays    uint64
	rebases   uint64
	demotes   uint64
	maxRungs  int
	maxBottom int
	maxSize   int
}

// eventAscending is the drain-list order: (at, seq) ascending — the exact
// total order the heap's less() induces.
func eventAscending(x, y *event) int {
	if before(x, y) {
		return -1
	}
	return 1
}

// before reports whether x orders ahead of y in (at, seq).
func before(x, y *event) bool { return x.at < y.at || (x.at == y.at && x.seq < y.seq) }

// Entry placement: an event goes to bottom if it precedes botEnd, else to
// the deepest rung whose window covers it, else to the overflow band. The
// size bookkeeping and botEnd dispatch live inline in Engine.push — one
// call level saved on the hottest path in the simulator.

// insertHigh places an entry at or above botEnd: the deepest rung whose
// window covers it, else the overflow band. Walking rungs deepest-first is
// correct because each rung's window starts exactly where its child's ends.
func (l *ladder) insertHigh(ev *event) {
	for i := len(l.rungs) - 1; i >= 0; i-- {
		r := l.rungs[i]
		k := int64(ev.at) >> r.shift
		if k < r.hiK {
			s := int(k & ladderBucketMask)
			ev.where = locRung
			ev.lvl = int16(i)
			ev.bkt = int32(s)
			ev.index = 0
			r.push(s, ev)
			return
		}
	}
	ev.where = locOver
	ev.index = int32(len(l.over))
	l.over = append(l.over, ev)
}

// insertBottom splices an entry into the sorted drain list. The two O(1)
// fast paths cover nearly every insert an advancing simulation produces:
// after every live entry (a completion a little further out than the rest)
// or before all of them into the free slot the head cursor just vacated.
func (l *ladder) insertBottom(ev *event) {
	if len(l.bottom)-l.head >= ladderBottomSpill && len(l.rungs) == 0 {
		// The sparse-regime assumption broke: shed the far half before
		// splicing. The demote may put the cut below ev, in which case it
		// now belongs in the overflow band instead.
		l.demote()
		if ev.at >= l.botEnd {
			l.insertHigh(ev)
			return
		}
	}
	b := l.bottom
	ev.where = locBottom
	// Bottom entries are positioned by search, not by index (splices would
	// have to rewrite every shifted entry's index); the constant 0 keeps
	// Pending()'s index >= 0 liveness contract intact.
	ev.index = 0
	switch {
	case l.head == len(b): // empty: restart the window at slot 0
		l.head = 0
		l.bottom = append(b[:0], ev)
	case before(b[len(b)-1], ev):
		// Compact the dead prefix before growing the array under it.
		if l.head > 64 && l.head*2 >= len(b) {
			n := copy(b, b[l.head:])
			for i := n; i < len(b); i++ {
				b[i] = nil
			}
			b = b[:n]
			l.head = 0
		}
		l.bottom = append(b, ev)
	case l.head > 0 && before(ev, b[l.head]):
		l.head--
		b[l.head] = ev
	default:
		// General splice: first live index whose entry orders after ev.
		lo, hi := l.head, len(b)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if before(ev, b[mid]) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		if l.head > 0 && lo-l.head <= len(b)-lo {
			// Shift the shorter prefix left into the vacated slot.
			copy(b[l.head-1:], b[l.head:lo])
			l.head--
			b[lo-1] = ev
		} else {
			b = append(b, nil)
			copy(b[lo+1:], b[lo:])
			b[lo] = ev
			l.bottom = b
		}
	}
	if live := len(l.bottom) - l.head; live > l.maxBottom {
		l.maxBottom = live
	}
}

// popHead removes and returns the global minimum (bottom[head]). The caller
// ensures bottom is non-empty (via refill).
func (l *ladder) popHead() *event {
	ev := l.bottom[l.head]
	l.bottom[l.head] = nil
	l.head++
	if l.head == len(l.bottom) {
		l.bottom = l.bottom[:0]
		l.head = 0
	}
	ev.index = -1
	ev.where = locNone
	l.size--
	return ev
}

// remove unlinks a canceled entry from whichever container holds it:
// ordered removal in bottom, a list unlink in a rung bucket, swap-remove in
// the overflow band.
func (l *ladder) remove(ev *event) {
	switch ev.where {
	case locBottom:
		// Bottom entries carry no index (splices would have to rewrite
		// them); the sorted order makes (at, seq) — unique per entry — a
		// search key instead.
		b := l.bottom
		n := len(b)
		lo, hi := l.head, n
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if before(b[mid], ev) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		i := lo // b[lo] == ev: the entry is known to be resident
		switch {
		case i == l.head:
			b[i] = nil
			l.head++
			if l.head == n {
				l.bottom = b[:0]
				l.head = 0
			}
		case i == n-1:
			b[n-1] = nil
			l.bottom = b[:n-1]
		case i-l.head < n-1-i:
			// Shift the shorter prefix right over the hole.
			copy(b[l.head+1:i+1], b[l.head:i])
			b[l.head] = nil
			l.head++
		default:
			copy(b[i:], b[i+1:])
			b[n-1] = nil
			l.bottom = b[:n-1]
		}
	case locRung:
		l.rungs[ev.lvl].unlink(int(ev.bkt), ev)
	case locOver:
		o := l.over
		i := int(ev.index)
		n := len(o) - 1
		if i != n {
			o[i] = o[n]
			o[i].index = int32(i)
		}
		o[n] = nil
		l.over = o[:n]
	}
	ev.index = -1
	ev.where = locNone
	l.size--
}

// refill repopulates the empty bottom from the earliest occupied bucket,
// spraying dense buckets into a finer rung first and rebasing the overflow
// band into a fresh top rung when every rung has drained. It returns false
// only when the calendar is empty. refill runs no callbacks, so it is safe
// from peek paths as well as the run loop.
func (l *ladder) refill() bool {
	for {
		for n := len(l.rungs); n > 0; n = len(l.rungs) {
			r := l.rungs[n-1]
			if r.count == 0 {
				l.rungs[n-1] = nil
				l.rungs = l.rungs[:n-1]
				l.releaseRung(r)
				continue
			}
			k := r.nextOccupied()
			s := int(k & ladderBucketMask)
			if r.n[s] > ladderSprayThresh && r.shift > 0 && n < ladderMaxRungs {
				l.spray(r, k, s)
				continue
			}
			// Move the bucket into bottom in insertion order, which is
			// nearly sorted, then sort it and advance the window. The
			// events leave the rung but stay at the same logical position
			// in time, so ordering is unaffected.
			b := l.bottom[:0]
			for ev := r.take(s); ev != nil; ev = ev.next {
				ev.where = locBottom
				b = append(b, ev)
			}
			slices.SortFunc(b, eventAscending)
			l.bottom = b
			l.head = 0
			if len(b) > l.maxBottom {
				l.maxBottom = len(b)
			}
			r.curK = k + 1
			if k+1 > int64(Infinity)>>r.shift {
				l.botEnd = Infinity
			} else {
				l.botEnd = Time((k + 1) << r.shift)
			}
			l.sorts++
			return true
		}
		if len(l.over) == 0 {
			return false
		}
		if len(l.over) <= ladderSprayThresh {
			l.directSort()
			return true
		}
		l.rebase()
	}
}

// directSort drains a small overflow band straight into bottom, skipping
// the rung machinery: the dominant regime for tiny calendars (a handful of
// in-flight deliveries plus timers), where rebase/release churn per event
// would dwarf the dispatch itself. Only events within ladderDirectWindow of
// the minimum move; later ones stay in the band for the next refill.
func (l *ladder) directSort() {
	o := l.over
	lo := o[0].at
	for _, ev := range o[1:] {
		if ev.at < lo {
			lo = ev.at
		}
	}
	winEnd := lo.Add(ladderDirectWindow)
	if winEnd < lo { // saturate near the top of the range
		winEnd = Infinity
	}
	b := l.bottom[:0]
	kept := 0
	for _, ev := range o {
		if ev.at < winEnd {
			b = append(b, ev)
		} else {
			ev.index = int32(kept)
			o[kept] = ev
			kept++
		}
	}
	if len(b) == 0 {
		// Every remaining event sits exactly at Infinity (botEnd is
		// exclusive, so they can never move below it); drain them in seq
		// order rather than spin.
		b = append(b, o[:kept]...)
		kept = 0
	}
	for i := kept; i < len(o); i++ {
		o[i] = nil
	}
	l.over = o[:kept]
	slices.SortFunc(b, eventAscending)
	for _, ev := range b {
		ev.where = locBottom
	}
	l.bottom = b
	l.head = 0
	if len(b) > l.maxBottom {
		l.maxBottom = len(b)
	}
	l.botEnd = winEnd
	l.sorts++
}

// demote splits an oversized rungless drain list: the far half of the live
// window moves to the overflow band and botEnd drops to the cut instant, so
// splice cost stays bounded while the near half keeps draining in place. The
// cut never divides one instant — equal-at entries either all stay or all
// move — so the (at, seq) total order across containers is preserved.
func (l *ladder) demote() {
	b := l.bottom
	n := len(b)
	cut := l.head + (n-l.head)/2
	cutAt := b[cut].at
	for cut > l.head && b[cut-1].at == cutAt {
		cut--
	}
	if cut == l.head {
		return // one instant dominates the window; nothing to split off
	}
	for _, ev := range b[cut:] {
		ev.where = locOver
		ev.index = int32(len(l.over))
		l.over = append(l.over, ev)
	}
	for i := cut; i < n; i++ {
		b[i] = nil
	}
	l.bottom = b[:cut]
	l.botEnd = cutAt
	l.demotes++
}

// spray redistributes one dense bucket into a new, ~256× finer rung pushed
// onto the stack. The parent's window advances past the bucket, so the child
// covers exactly the gap: ordering between rungs is preserved.
func (l *ladder) spray(r *rung, k int64, s int) {
	childShift := uint(0)
	if r.shift > 8 {
		childShift = r.shift - 8
	}
	diff := r.shift - childShift
	c := l.newRung()
	c.shift = childShift
	c.curK = k << diff
	c.hiK = (k + 1) << diff
	lvl := int16(len(l.rungs))
	for ev := r.take(s); ev != nil; {
		nx := ev.next
		s2 := int((int64(ev.at) >> childShift) & ladderBucketMask)
		ev.lvl = lvl
		ev.bkt = int32(s2)
		c.push(s2, ev)
		ev = nx
	}
	r.curK = k + 1
	l.rungs = append(l.rungs, c)
	l.sprays++
	if len(l.rungs) > l.maxRungs {
		l.maxRungs = len(l.rungs)
	}
}

// rebase pours the overflow band into a fresh top rung sized so the whole
// span fits in one window (a "bucket resize" in calendar-queue terms). Only
// called with an empty rung stack, so the new rung is both top and deepest.
func (l *ladder) rebase() {
	o := l.over
	lo, hi := o[0].at, o[0].at
	for _, ev := range o[1:] {
		if ev.at < lo {
			lo = ev.at
		}
		if ev.at > hi {
			hi = ev.at
		}
	}
	shift := uint(0)
	for int64(hi)>>shift-int64(lo)>>shift >= ladderBuckets {
		shift++
	}
	r := l.newRung()
	r.shift = shift
	r.curK = int64(lo) >> shift
	r.hiK = r.curK + ladderBuckets
	for _, ev := range o {
		s := int((int64(ev.at) >> shift) & ladderBucketMask)
		ev.where = locRung
		ev.lvl = 0
		ev.bkt = int32(s)
		ev.index = 0
		r.push(s, ev)
	}
	l.over = o[:0]
	l.rungs = append(l.rungs, r)
	l.rebases++
	if len(l.rungs) > l.maxRungs {
		l.maxRungs = len(l.rungs)
	}
}

func (l *ladder) newRung() *rung {
	if n := len(l.pool); n > 0 {
		r := l.pool[n-1]
		l.pool[n-1] = nil
		l.pool = l.pool[:n-1]
		return r
	}
	return &rung{}
}

// releaseRung retires a drained rung to the pool. A rung with count == 0
// has every bucket list empty and every occupancy bit clear (consume,
// cancel, and spray all maintain this), so only the scalars need resetting.
func (l *ladder) releaseRung(r *rung) {
	r.shift, r.curK, r.hiK, r.count = 0, 0, 0, 0
	l.pool = append(l.pool, r)
}

// drain recycles every resident entry through recycle and empties the
// ladder, keeping the drain list's and band's capacity and the pooled rungs
// warm (Engine.Reset).
func (l *ladder) drain(recycle func(*event)) {
	for i := l.head; i < len(l.bottom); i++ {
		ev := l.bottom[i]
		ev.index = -1
		ev.where = locNone
		recycle(ev)
		l.bottom[i] = nil
	}
	l.bottom = l.bottom[:0]
	l.head = 0
	for i, ev := range l.over {
		ev.index = -1
		ev.where = locNone
		recycle(ev)
		l.over[i] = nil
	}
	l.over = l.over[:0]
	for n := len(l.rungs); n > 0; n = len(l.rungs) {
		r := l.rungs[n-1]
		l.rungs[n-1] = nil
		l.rungs = l.rungs[:n-1]
		for s := range r.head {
			for ev := r.take(s); ev != nil; ev = ev.next {
				ev.index = -1
				ev.where = locNone
				recycle(ev)
			}
		}
		l.releaseRung(r)
	}
	l.botEnd = 0
	l.size = 0
}
