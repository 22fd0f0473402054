// Batched admission.
//
// The batcher sits between the HTTP handlers and the worker queue.
// Instead of entering the queue immediately, a batchable request parks in
// a short collection window (Config.BatchMaxWait, default 2ms) keyed by
// its full semantic identity (Request.batchKey). The window flushes when
// the max-wait timer fires or when BatchMaxSize requests have
// accumulated, whichever is first. At flush time:
//
//   - requests with identical keys have already coalesced into one set:
//     one queue slot, one execution, one response fanned out to every
//     waiter (followers marked Deduped);
//   - distinct simulate-only sets that compile the same program and share
//     an execution identity (Request.groupKey) merge into one group task.
//     The worker serves it on the singleton's code path (Server.process
//     treats a singleton as a group of one): one compile and one
//     artifact.RunBatch, so the VM runs at most once and the rest replay
//     the encoded trace, bit-identically;
//   - everything else enters the queue as an ordinary singleton task.
//
// The cost is bounded, deliberate latency: an isolated request pays up to
// BatchMaxWait (worst case ~2× when a size-flush re-arms the window)
// before queueing. A storm of near-identical traffic pays one compile and
// about one simulation for the whole storm — the same liveness bet as the
// paper's cache: predicted-dead traffic (one-shot, all different) loses a
// couple of milliseconds; predicted-live traffic (hot source, many
// geometries) wins orders of magnitude.
//
// Lifecycle: one timer goroutine, joined on close. Closing sheds every
// parked member with 503 draining. Submissions after close shed
// immediately, so no waiter can be stranded.
package serve

import (
	"context"
	"net/http"
	"sync"
	"time"
)

type batcher struct {
	s       *Server
	maxWait time.Duration
	maxSize int

	mu      sync.Mutex
	closed  bool
	pend    map[string]*reqSet // batchKey -> coalesced set
	order   []string           // first-seen key order (detmap: map never ranged)
	members int                // total waiters parked, across sets

	kick  chan struct{} // armed when a batch window opens (cap 1)
	stopc chan struct{}
	wg    sync.WaitGroup
}

func newBatcher(s *Server, maxWait time.Duration, maxSize int) *batcher {
	b := &batcher{
		s:       s,
		maxWait: maxWait,
		maxSize: maxSize,
		pend:    make(map[string]*reqSet),
		kick:    make(chan struct{}, 1),
		stopc:   make(chan struct{}),
	}
	b.wg.Add(1)
	go b.loop()
	return b
}

// loop is the window timer: each kick (a batch window opening) arms one
// maxWait sleep, after which everything pending is flushed. A size-flush
// may empty the window first — the timer then flushes nothing. A window
// opening while the timer is already armed rides the armed sleep or, if
// it raced a size-flush, the buffered kick; either bounds its wait by
// ~2× maxWait. The timer never holds b.mu while sleeping.
func (b *batcher) loop() {
	defer b.wg.Done()
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	for {
		select {
		case <-b.stopc:
			return
		case <-b.kick:
			timer.Reset(b.maxWait)
			select {
			case <-b.stopc:
				return
			case <-timer.C:
				b.mu.Lock()
				if !b.closed {
					b.flushLocked()
				}
				b.mu.Unlock()
			}
		}
	}
}

// submit parks one request in the current window, coalescing it into an
// existing set when the key matches. reply receives exactly one response
// eventually (flush, overload, or drain shed).
func (b *batcher) submit(key string, req *Request, ctx context.Context, enq time.Time, reply chan *Response) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		b.s.rejectSet(&reqSet{waiters: []chan *Response{reply}},
			(&Response{}).fail(http.StatusServiceUnavailable, KindDraining, "",
				"server is draining"))
		return
	}
	set := b.pend[key]
	if set == nil {
		set = &reqSet{req: req, enq: enq}
		b.pend[key] = set
		b.order = append(b.order, key)
		if len(b.order) == 1 {
			// A window just opened; arm the timer. Non-blocking: a
			// buffered kick already guarantees a flush is coming.
			select {
			case b.kick <- struct{}{}:
			default:
			}
		}
	} else {
		b.s.met.noteCoalesced()
	}
	set.ctxs = append(set.ctxs, ctx)
	set.waiters = append(set.waiters, reply)
	b.members++
	if b.members >= b.maxSize {
		b.flushLocked()
	}
	b.mu.Unlock()
}

// flushLocked moves the whole window into the worker queue: artifact
// groups become group tasks, the rest singletons, in first-seen order
// (groups first). Caller holds b.mu.
func (b *batcher) flushLocked() {
	if len(b.order) == 0 {
		return
	}
	pend, order := b.pend, b.order
	b.pend = make(map[string]*reqSet)
	b.order = nil
	b.members = 0
	b.s.met.noteFlush()

	type group struct{ sets []*reqSet }
	groups := make(map[string]*group)
	var gorder []string
	var singles []*reqSet
	for _, k := range order {
		set := pend[k]
		gk, ok := set.req.groupKey()
		if !ok {
			singles = append(singles, set)
			continue
		}
		g := groups[gk]
		if g == nil {
			g = &group{}
			groups[gk] = g
			gorder = append(gorder, gk)
		}
		g.sets = append(g.sets, set)
	}
	for _, gk := range gorder {
		g := groups[gk]
		if len(g.sets) == 1 {
			singles = append(singles, g.sets[0])
			continue
		}
		b.enqueue(b.newTask(g.sets))
	}
	for _, set := range singles {
		b.enqueue(b.newTask([]*reqSet{set}))
	}
}

// newTask wraps sets into a queue task. Work owned by a single client
// runs under that client's context; shared work runs under a context
// detached from every client (one disconnect must not cancel the others'
// answer) carrying the latest member deadline.
func (b *batcher) newTask(sets []*reqSet) *task {
	t := &task{sets: sets, enq: sets[0].enq}
	if len(sets) == 1 && len(sets[0].ctxs) == 1 {
		t.ctx = sets[0].ctxs[0]
		return t
	}
	var dl time.Time
	for _, set := range sets {
		for _, c := range set.ctxs {
			if d, ok := c.Deadline(); ok && d.After(dl) {
				dl = d
			}
		}
	}
	if dl.IsZero() {
		t.ctx, t.cancel = context.WithTimeout(context.Background(), b.s.cfg.DefaultDeadline)
	} else {
		t.ctx, t.cancel = context.WithDeadline(context.Background(), dl)
	}
	return t
}

// enqueue admits a task non-blockingly; a full queue sheds every member
// with 429, same contract as the direct path.
func (b *batcher) enqueue(t *task) {
	select {
	case b.s.queue <- t:
	default:
		if t.cancel != nil {
			t.cancel()
		}
		for _, set := range t.sets {
			b.s.rejectSet(set, (&Response{}).fail(http.StatusTooManyRequests, KindOverload, "",
				"admission queue full"))
		}
	}
}

// close stops the timer goroutine (joined) and sheds every parked member
// with 503 draining. Called once, from Shutdown, after draining flips.
func (b *batcher) close() {
	b.mu.Lock()
	b.closed = true
	pend, order := b.pend, b.order
	b.pend, b.order, b.members = nil, nil, 0
	b.mu.Unlock()

	close(b.stopc)
	b.wg.Wait()

	for _, k := range order {
		b.s.rejectSet(pend[k], (&Response{}).fail(http.StatusServiceUnavailable, KindDraining, "",
			"server is draining"))
	}
}
