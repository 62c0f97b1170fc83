package sim

// eventQueue is the kernel's pending-event store: a binary min-heap of
// events ordered by (at, seq). seq is unique and monotone, so the order
// is total and dispatch is deterministic; events at the same instant
// fire in the order they were scheduled.
//
// Every queued event records its slot in idx, so a pending event can be
// removed (Event.Cancel, a signalled Cond waiter's timer) or moved
// (Event.Reschedule) in place in O(log n). Nothing cancelled lingers in
// the queue: its length is exactly the number of live pending events.
//
// The heap is typed rather than built on container/heap, whose
// interface adapter costs an indirect call per comparison and boxes
// every push on the kernel's hottest path.
type eventQueue []*event

// before reports whether a dispatches before b.
func (a *event) before(b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// push inserts ev.
func (q *eventQueue) push(ev *event) {
	*q = append(*q, ev)
	q.up(len(*q) - 1)
}

// pop removes and returns the earliest event. The queue must not be
// empty.
func (q *eventQueue) pop() *event {
	ev := (*q)[0]
	q.remove(ev)
	return ev
}

// remove deletes ev, which must be queued.
func (q *eventQueue) remove(ev *event) {
	h := *q
	i, n := ev.idx, len(h)-1
	h[i] = h[n]
	h[i].idx = i
	h[n] = nil
	*q = h[:n]
	if i < n {
		q.fix(i)
	}
}

// fix restores heap order after the key of the event at slot i
// changed.
func (q eventQueue) fix(i int) {
	if !q.down(i) {
		q.up(i)
	}
}

func (q eventQueue) up(i int) {
	ev := q[i]
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(q[p]) {
			break
		}
		q[i] = q[p]
		q[i].idx = i
		i = p
	}
	q[i] = ev
	ev.idx = i
}

// down sifts the event at slot i toward the leaves and reports whether
// it moved.
func (q eventQueue) down(i int) bool {
	ev, start := q[i], i
	for {
		c := 2*i + 1
		if c >= len(q) {
			break
		}
		if r := c + 1; r < len(q) && q[r].before(q[c]) {
			c = r
		}
		if !q[c].before(ev) {
			break
		}
		q[i] = q[c]
		q[i].idx = i
		i = c
	}
	q[i] = ev
	ev.idx = i
	return i > start
}
