package shard

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"bvtree/internal/bvtree"
	"bvtree/internal/geometry"
	"bvtree/internal/obs"
)

// ServerConfig tunes a Server. The zero value serves with the defaults
// documented on each field.
type ServerConfig struct {
	// MaxFrame caps a frame's payload length in bytes (default
	// shard.MaxFrame, 16 MiB). A frame announcing more than this closes
	// the connection.
	MaxFrame int
	// RangeLimitMax caps the per-request item limit of OpRange responses
	// (default 1<<20). Requests asking for more (or for no limit) are
	// truncated here, which bounds response frames independently of
	// MaxFrame.
	RangeLimitMax int
}

func (c *ServerConfig) fill() {
	if c.MaxFrame <= 0 {
		c.MaxFrame = MaxFrame
	}
	if c.RangeLimitMax <= 0 {
		c.RangeLimitMax = 1 << 20
	}
}

// numOps is the size of the per-opcode metric arrays (opcodes are
// 1-based and contiguous).
const numOps = OpLen + 1

// serverMetrics are the server-layer observability instruments,
// complementing the per-shard tree metrics reachable through the
// router.
type serverMetrics struct {
	conns    obs.Gauge   // currently open connections
	accepted obs.Counter // connections accepted over the server's life
	errors   obs.Counter // non-OK responses sent
	bytesIn  obs.Counter // request frame bytes read (incl. length prefixes)
	bytesOut obs.Counter // response frame bytes written
	requests [numOps]obs.Counter
	latency  [numOps]obs.Histogram // request execution ns, by opcode
}

// OpMetrics is one opcode's request count and execution-latency summary
// in a ServerMetricsSnapshot.
type OpMetrics struct {
	Requests uint64                `json:"requests"`
	Latency  obs.HistogramSnapshot `json:"latency_ns"`
}

// ServerMetricsSnapshot is the server-layer metrics view: connection
// and byte counters plus per-opcode request latencies. Per-shard tree,
// WAL and store metrics are a separate surface (Router.ShardMetrics);
// cmd/bvserver publishes both under one expvar key.
type ServerMetricsSnapshot struct {
	Conns    int64                `json:"conns"`
	Accepted uint64               `json:"accepted"`
	Errors   uint64               `json:"errors"`
	BytesIn  uint64               `json:"bytes_in"`
	BytesOut uint64               `json:"bytes_out"`
	Ops      map[string]OpMetrics `json:"ops"`
}

// Server speaks the PROTOCOL.md wire protocol over a Router. Create
// one with NewServer, start it with Serve or ListenAndServe, stop it
// with Close. Every connection is one goroutine that reads a request,
// executes it against the router and writes its response, strictly in
// arrival order: responses are ordered per connection, and
// cross-connection parallelism — not reordering — is the concurrency
// model. While it executes, the goroutine does not read, so a client
// that pipelines ahead is held back by TCP flow control.
type Server struct {
	r   *Router
	cfg ServerConfig
	m   serverMetrics

	// closing is set once Close begins; requests read after it are
	// answered with StatusShutdown.
	closing atomic.Bool

	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]struct{}

	wg sync.WaitGroup
}

// NewServer returns an unstarted server over r.
func NewServer(r *Router, cfg ServerConfig) *Server {
	cfg.fill()
	return &Server{r: r, cfg: cfg, conns: make(map[net.Conn]struct{})}
}

// Router returns the router the server serves.
func (s *Server) Router() *Router { return s.r }

// ListenAndServe listens on addr (e.g. ":7070", "127.0.0.1:0") and
// serves until Close. It returns the Serve error after listening
// succeeds; the listener's address is available from Addr once this
// call has entered Serve.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Close. It always returns a
// non-nil error; after Close the error is net.ErrClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closing.Load() {
		s.mu.Unlock()
		ln.Close()
		return net.ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.closing.Load() {
			s.mu.Unlock()
			conn.Close()
			return net.ErrClosed
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.m.accepted.Inc()
		s.m.conns.Add(1)
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// Addr returns the serving listener's address, or nil before Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// closeWriteGrace is how long Close lets a connection go on writing: long
// enough for a live client to receive the response of the request in
// flight and StatusShutdown for those it pipelined behind it, short
// enough that a client which has stopped reading cannot hold Close.
const closeWriteGrace = time.Second

// Close stops accepting, ends every open connection and waits for the
// connections' goroutines to return. Reads stop at once. A request in
// flight completes, and it and every request already received behind it
// (those answered with StatusShutdown) are written within
// closeWriteGrace, after which a connection whose client does not read
// is dropped. Close is idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closing.Store(true)
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	now := time.Now()
	for _, c := range conns {
		c.SetReadDeadline(now)
		c.SetWriteDeadline(now.Add(closeWriteGrace))
	}
	s.wg.Wait()
	return nil
}

// Metrics returns the server-layer metrics snapshot.
func (s *Server) Metrics() ServerMetricsSnapshot {
	snap := ServerMetricsSnapshot{
		Conns:    s.m.conns.Load(),
		Accepted: s.m.accepted.Load(),
		Errors:   s.m.errors.Load(),
		BytesIn:  s.m.bytesIn.Load(),
		BytesOut: s.m.bytesOut.Load(),
		Ops:      make(map[string]OpMetrics),
	}
	for op := 1; op < numOps; op++ {
		n := s.m.requests[op].Load()
		if n == 0 {
			continue
		}
		snap.Ops[opName(byte(op))] = OpMetrics{
			Requests: n,
			Latency:  s.m.latency[op].Snapshot(),
		}
	}
	return snap
}

// connState is what one connection reuses from request to request: the
// request payload, the response frame, the coordinates a request's point
// or rect is decoded into, and the Range visitor, bound once so that a
// query allocates no closure.
type connState struct {
	req, resp []byte
	coords    geometry.Point // 2·dims: a point is the first half, a rect both

	// The Range in progress: visit appends items to resp.
	limit, count int
	truncated    bool
	visit        bvtree.Visitor
}

func newConnState(dims int) *connState {
	c := &connState{coords: make(geometry.Point, 2*dims)}
	c.visit = c.appendItem
	return c
}

// appendItem is the Range visitor: one item into the response, until the
// limit.
func (c *connState) appendItem(p geometry.Point, payload uint64) bool {
	if c.count == c.limit {
		c.truncated = true
		return false
	}
	c.resp = appendPoint(c.resp, p)
	c.resp = binary.BigEndian.AppendUint64(c.resp, payload)
	c.count++
	return true
}

// point and rect decode a request's argument into the connection's
// coordinates, returning the remainder of the body.
func (c *connState) point(body []byte) (geometry.Point, []byte, bool) {
	p := c.coords[:len(c.coords)/2]
	rest, ok := parsePoint(body, p)
	return p, rest, ok
}

func (c *connState) rect(body []byte) (geometry.Rect, []byte, bool) {
	dims := len(c.coords) / 2
	rect := geometry.Rect{Min: c.coords[:dims], Max: c.coords[dims:]}
	rest, ok := parsePoint(body, rect.Min)
	if ok {
		rest, ok = parsePoint(rest, rect.Max)
	}
	return rect, rest, ok
}

// serveConn runs one connection on one goroutine: read a request, execute
// it, write its response. Responses are flushed unless the next whole
// request is already buffered, so a lone request is answered at once and
// a pipelined burst is answered in few writes.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.m.conns.Add(-1)
	}()

	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	c := newConnState(s.r.plan.Dims)
	for {
		var err error
		if c.req, err = readFrame(br, c.req, s.cfg.MaxFrame); err != nil {
			// EOF, peer reset, Close's read deadline, or an unframeable
			// stream (bad length): nothing further can be parsed, so the
			// connection ends.
			break
		}
		s.m.bytesIn.Add(uint64(len(c.req)) + 4)
		status := s.execute(c)
		if _, err := bw.Write(c.resp); err != nil {
			break
		}
		s.m.bytesOut.Add(uint64(len(c.resp)))
		if status != StatusOK {
			s.m.errors.Inc()
		}
		if !requestBuffered(br) {
			if err := bw.Flush(); err != nil {
				break
			}
		}
		c.req, c.resp = reuse(c.req), reuse(c.resp)
	}
	bw.Flush()
}

// requestBuffered reports whether br already holds the whole of the next
// frame.
func requestBuffered(br *bufio.Reader) bool {
	if br.Buffered() < 4 {
		return false
	}
	hdr, _ := br.Peek(4)
	return uint64(br.Buffered()) >= 4+uint64(binary.BigEndian.Uint32(hdr))
}

// execute runs the request in c.req, leaves its whole response frame in
// c.resp and returns the response status.
func (s *Server) execute(c *connState) byte {
	req := c.req
	op := req[1]
	c.resp = beginFrame(c.resp, StatusOK, binary.BigEndian.Uint32(req[2:6]))
	var status byte
	var msg string
	switch {
	case req[0] != ProtoVersion:
		status, msg = StatusBadVersion, fmt.Sprintf("got version %#02x, want %#02x", req[0], ProtoVersion)
	case s.closing.Load():
		status, msg = StatusShutdown, statusText(StatusShutdown)
	case op == 0 || op >= numOps:
		status, msg = StatusUnknownOp, fmt.Sprintf("opcode %#02x", op)
	default:
		s.m.requests[op].Inc()
		start := time.Now()
		status, msg = s.executeOp(c, op, req[headerSize:])
		s.m.latency[op].Observe(int64(time.Since(start)))
	}
	if status != StatusOK {
		c.resp = append(c.resp[:frameHeader], msg...)
		c.resp[4+1] = status // past the length prefix and the version
	}
	c.resp = endFrame(c.resp)
	return status
}

// executeOp runs one request against the router and appends its OK body to
// c.resp, or returns the status and message of its failure.
func (s *Server) executeOp(c *connState, op byte, body []byte) (byte, string) {
	switch op {
	case OpPing:
		c.resp = append(c.resp, byte(s.r.plan.Dims))
		c.resp = binary.BigEndian.AppendUint16(c.resp, uint16(s.r.Shards()))
		return StatusOK, ""

	case OpInsert:
		p, rest, ok := c.point(body)
		if !ok || len(rest) != 8 {
			return StatusMalformed, "insert: want point + payload"
		}
		if err := s.r.Insert(p, binary.BigEndian.Uint64(rest)); err != nil {
			return StatusInternal, err.Error()
		}
		return StatusOK, ""

	case OpDelete:
		p, rest, ok := c.point(body)
		if !ok || len(rest) != 8 {
			return StatusMalformed, "delete: want point + payload"
		}
		found, err := s.r.Delete(p, binary.BigEndian.Uint64(rest))
		if err != nil {
			return StatusInternal, err.Error()
		}
		if found {
			c.resp = append(c.resp, 1)
		} else {
			c.resp = append(c.resp, 0)
		}
		return StatusOK, ""

	case OpLookup:
		p, rest, ok := c.point(body)
		if !ok || len(rest) != 0 {
			return StatusMalformed, "lookup: want point"
		}
		payloads, err := s.r.Lookup(p)
		if err != nil {
			return StatusInternal, err.Error()
		}
		c.resp = binary.BigEndian.AppendUint32(c.resp, uint32(len(payloads)))
		for _, v := range payloads {
			c.resp = binary.BigEndian.AppendUint64(c.resp, v)
		}
		return StatusOK, ""

	case OpRange:
		rect, rest, ok := c.rect(body)
		if !ok || len(rest) != 4 {
			return StatusMalformed, "range: want min + max + limit"
		}
		if err := checkRect(rect); err != nil {
			return StatusBadRequest, err.Error()
		}
		c.limit = int(binary.BigEndian.Uint32(rest))
		if c.limit == 0 || c.limit > s.cfg.RangeLimitMax {
			c.limit = s.cfg.RangeLimitMax
		}
		// count(uint32) and truncated(1) are filled in once the items are.
		head := len(c.resp)
		c.resp = append(c.resp, 0, 0, 0, 0, 0)
		c.count, c.truncated = 0, false
		if err := s.r.RangeQuery(rect, c.visit); err != nil {
			return StatusInternal, err.Error()
		}
		binary.BigEndian.PutUint32(c.resp[head:], uint32(c.count))
		if c.truncated {
			c.resp[head+4] = 1
		}
		return StatusOK, ""

	case OpCount:
		rect, rest, ok := c.rect(body)
		if !ok || len(rest) != 0 {
			return StatusMalformed, "count: want min + max"
		}
		if err := checkRect(rect); err != nil {
			return StatusBadRequest, err.Error()
		}
		n, err := s.r.Count(rect)
		if err != nil {
			return StatusInternal, err.Error()
		}
		c.resp = binary.BigEndian.AppendUint64(c.resp, uint64(n))
		return StatusOK, ""

	case OpNearest:
		p, rest, ok := c.point(body)
		if !ok || len(rest) != 4 {
			return StatusMalformed, "nearest: want point + k"
		}
		k := int(binary.BigEndian.Uint32(rest))
		if k < 1 {
			return StatusBadRequest, "nearest: k must be at least 1"
		}
		ns, err := s.r.Nearest(p, k)
		if err != nil {
			return StatusInternal, err.Error()
		}
		c.resp = binary.BigEndian.AppendUint32(c.resp, uint32(len(ns)))
		for _, nb := range ns {
			c.resp = appendPoint(c.resp, nb.Point)
			c.resp = binary.BigEndian.AppendUint64(c.resp, nb.Payload)
			c.resp = binary.BigEndian.AppendUint64(c.resp, math.Float64bits(nb.Dist))
		}
		return StatusOK, ""

	case OpLen:
		lens := s.r.ShardLens()
		total := 0
		for _, n := range lens {
			total += n
		}
		c.resp = binary.BigEndian.AppendUint64(c.resp, uint64(total))
		c.resp = binary.BigEndian.AppendUint16(c.resp, uint16(len(lens)))
		for _, n := range lens {
			c.resp = binary.BigEndian.AppendUint64(c.resp, uint64(n))
		}
		return StatusOK, ""
	}
	return StatusUnknownOp, fmt.Sprintf("opcode %#02x", op)
}

// checkRect rejects a rect whose min exceeds its max in some dimension,
// with geometry.NewRect's message.
func checkRect(rect geometry.Rect) error {
	for d := range rect.Min {
		if rect.Min[d] > rect.Max[d] {
			_, err := geometry.NewRect(rect.Min, rect.Max)
			return err
		}
	}
	return nil
}

// ErrStatus is the error a Client returns for a non-OK response
// status: the code, its name, and the server's message.
type ErrStatus struct {
	Status byte
	Msg    string
}

func (e *ErrStatus) Error() string {
	if e.Msg == "" {
		return fmt.Sprintf("shard: server error: %s", statusText(e.Status))
	}
	return fmt.Sprintf("shard: server error: %s: %s", statusText(e.Status), e.Msg)
}

// IsStatus reports whether err is an ErrStatus carrying the given
// status code.
func IsStatus(err error, status byte) bool {
	var se *ErrStatus
	return errors.As(err, &se) && se.Status == status
}
