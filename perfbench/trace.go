package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// Spans come only from the benchmark's own wrappers around the public
// boundaries of the program: the transport.Caller handed to
// core.NewService and node.Attach, and the transport.Handler handed to
// transport.NewServer. The program itself carries no tracing.

type spanKind uint8

const (
	spanOp     spanKind = iota + 1 // one client operation (the root)
	spanCall                       // one transport.Caller.Call
	spanHandle                     // one transport.Handler.Handle
)

// Endpoints (where a call lands, where a handle runs) and origins (who
// issued a call). Node i is endpoint and origin i.
const (
	endpointProxy = 100
	originClient  = -1
	originProxy   = -2
)

func endpointNode(i int) int16 { return int16(i) }

// span is one timed interval. Times are nanoseconds since the tracer's
// epoch on the monotonic clock; all spans come from one process.
type span struct {
	id, parent uint64 // parent 0: none known (handles are matched later)
	start, end int64
	kind       spanKind
	msg        wire.Kind // the message (call, handle) or operation (op)
	origin     int16     // call: who called
	at         int16     // call: target endpoint; handle: its endpoint
	key        int32     // population index; -1 when the message has none
	useful     int8      // lookup call: 1 if it added a new entry, 0 if not; -1 n/a
	bytes      int32     // lookup probe: request plus reply bytes on the wire
	post       int32     // call: ns the wrapper spent after end (tracing cost)
}

// spanRef travels in the ctx from an op or handle span to the calls it
// issues.
type spanRef struct {
	id   uint64
	seen map[string]struct{} // entries the span's lookup calls returned so far
}

type spanKey struct{}

func refOf(ctx context.Context) *spanRef {
	r, _ := ctx.Value(spanKey{}).(*spanRef)
	return r
}

// tracer collects spans in memory while enabled.
type tracer struct {
	epoch time.Time
	keys  map[string]int32 // read-only after construction
	on    atomic.Bool
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span
	limit int

	bufs sync.Pool
}

func newTracer(pop *population, limit int) *tracer {
	t := &tracer{epoch: time.Now(), keys: make(map[string]int32, len(pop.keys)),
		spans: make([]span, 0, limit), limit: limit}
	for i, k := range pop.keys {
		t.keys[k] = int32(i)
	}
	t.bufs.New = func() any { b := make([]byte, 0, 4096); return &b }
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

// full reports whether the span buffer is nearly exhausted; the traced
// window ends early rather than record partial trees.
func (t *tracer) full() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans) >= t.limit*9/10
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	if len(t.spans) < t.limit {
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

// take stops recording and returns the spans collected.
func (t *tracer) take() []span {
	t.on.Store(false)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans
	t.spans = nil
	return s
}

func (t *tracer) keyOf(msg wire.Message) int32 {
	var k string
	switch m := msg.(type) {
	case wire.Lookup:
		k = m.Key
	case wire.Add:
		k = m.Key
	case wire.Delete:
		k = m.Key
	case wire.Place:
		k = m.Key
	case wire.StoreBatch:
		k = m.Key
	case wire.StoreOne:
		k = m.Key
	case wire.RemoveOne:
		k = m.Key
	case wire.RoundRemove:
		k = m.Key
	case wire.RemoveAt:
		k = m.Key
	case wire.CounterSync:
		k = m.Key
	case wire.Migrate:
		k = m.Key
	default:
		return -1
	}
	if i, ok := t.keys[k]; ok {
		return i
	}
	return -1
}

// tracedCaller times every Call it forwards. Replies and errors pass
// through unchanged.
type tracedCaller struct {
	inner    transport.Caller
	tr       *tracer
	origin   int16
	endpoint func(server int) int16
}

func (t *tracer) caller(inner transport.Caller, origin int, endpoint func(int) int16) transport.Caller {
	return &tracedCaller{inner: inner, tr: t, origin: int16(origin), endpoint: endpoint}
}

func (c *tracedCaller) NumServers() int { return c.inner.NumServers() }

func (c *tracedCaller) Call(ctx context.Context, server int, msg wire.Message) (wire.Message, error) {
	if !c.tr.on.Load() {
		return c.inner.Call(ctx, server, msg)
	}
	id := c.tr.newID()
	start := c.tr.now()
	reply, err := c.inner.Call(ctx, server, msg)
	end := c.tr.now()
	s := span{id: id, start: start, end: end, kind: spanCall, msg: msg.Kind(),
		origin: c.origin, at: c.endpoint(server), key: c.tr.keyOf(msg), useful: -1}
	ref := refOf(ctx)
	if ref != nil {
		s.parent = ref.id
	}
	if lr, ok := reply.(wire.LookupReply); ok && err == nil {
		if ref != nil {
			s.useful = 0
			if ref.seen == nil {
				ref.seen = make(map[string]struct{}, len(lr.Entries))
			}
			for _, e := range lr.Entries {
				if _, dup := ref.seen[e]; !dup {
					ref.seen[e] = struct{}{}
					s.useful = 1
				}
			}
		}
		buf := c.tr.bufs.Get().(*[]byte)
		n := len(wire.AppendEncode((*buf)[:0], msg))
		*buf = wire.AppendEncode((*buf)[:0], reply)
		s.bytes = int32(n + len(*buf))
		c.tr.bufs.Put(buf)
	}
	s.post = int32(c.tr.now() - end)
	c.tr.record(s)
	return reply, err
}

// tracedHandler times every Handle it forwards and hands the callee a
// ctx naming the handle span, so the calls the handler issues (node
// peer calls, proxy backend probes) link to it. The reply passes
// through unchanged.
type tracedHandler struct {
	inner transport.Handler
	tr    *tracer
	at    int16
}

func (t *tracer) handler(inner transport.Handler, at int16) transport.Handler {
	return &tracedHandler{inner: inner, tr: t, at: at}
}

func (h *tracedHandler) Handle(ctx context.Context, msg wire.Message) wire.Message {
	if !h.tr.on.Load() {
		return h.inner.Handle(ctx, msg)
	}
	ref := &spanRef{id: h.tr.newID()}
	start := h.tr.now()
	reply := h.inner.Handle(context.WithValue(ctx, spanKey{}, ref), msg)
	end := h.tr.now()
	h.tr.record(span{id: ref.id, start: start, end: end, kind: spanHandle, msg: msg.Kind(),
		at: h.at, key: h.tr.keyOf(msg), useful: -1})
	return reply
}
