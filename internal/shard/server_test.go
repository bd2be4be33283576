package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"bvtree/internal/bvtree"
	"bvtree/internal/fault"
	"bvtree/internal/geometry"
	"bvtree/internal/storage"
	"bvtree/internal/vfs"
	"bvtree/internal/workload"
)

// startServer runs a server over mem-backed shards on a loopback
// listener and returns it with its dial address. Its cleanup closes the
// server, waits for Serve to return and checks that every goroutine the
// server started has exited.
func startServer(t *testing.T, dims, shards int, cfg ServerConfig) (*Server, string) {
	t.Helper()
	plan, err := PlanUniform(dims, shards, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(plan, newEngines(t, "mem", plan))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return serve(t, NewServer(r, cfg), ln), ln.Addr().String()
}

// serve runs s on ln until the test's cleanup closes it.
func serve(t *testing.T, s *Server, ln net.Listener) *Server {
	accept, conns := servingGoroutines()
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln) }()
	t.Cleanup(func() {
		s.Close()
		<-served
		waitServing(t, "after Close", func(a, c int) bool { return a <= accept && c <= conns })
	})
	return s
}

// servingGoroutines counts, from every goroutine's stack, the goroutines
// in a Server's accept loop (Serve) and those serving a connection
// (serveConn). Goroutines of the runtime, of clients or of other tests
// are not counted, so they cannot move the count.
func servingGoroutines() (accept, conns int) {
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	// A goroutine's trace is its frames, then the line naming the
	// function that started it, which does not end in an argument list.
	for _, g := range bytes.Split(buf[:n], []byte("\n\n")) {
		switch {
		case bytes.Contains(g, []byte("shard.(*Server).serveConn(")):
			conns++
		case bytes.Contains(g, []byte("shard.(*Server).Serve(")):
			accept++
		}
	}
	return accept, conns
}

// waitServing polls the serving goroutines until ok accepts their count,
// and fails the test if it has not within five seconds. A goroutine that
// has done its last work may still be exiting, so the count is awaited
// rather than read once.
func waitServing(t *testing.T, what string, ok func(accept, conns int) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for a, c := servingGoroutines(); !ok(a, c); a, c = servingGoroutines() {
		if time.Now().After(deadline) {
			t.Errorf("%s: %d accept loops and %d connection goroutines", what, a, c)
			return
		}
		time.Sleep(time.Millisecond)
	}
}

func TestShardServerRoundTrip(t *testing.T) {
	const dims, shards, n = 2, 4, 800
	s, addr := startServer(t, dims, shards, ServerConfig{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Dims() != dims || c.Shards() != shards {
		t.Fatalf("ping says dims=%d shards=%d, want %d/%d", c.Dims(), c.Shards(), dims, shards)
	}

	pts, err := workload.Generate(workload.Clustered, dims, n, 13)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if err := c.Insert(p, uint64(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}

	// The server's router is the oracle: the wire layer must be a
	// faithful transport on top of it.
	r := s.Router()
	total, perShard, err := c.Len()
	if err != nil {
		t.Fatal(err)
	}
	if total != n || total != r.Len() {
		t.Fatalf("len %d, want %d", total, n)
	}
	if len(perShard) != shards {
		t.Fatalf("per-shard lens %v, want %d entries", perShard, shards)
	}

	for i := 0; i < n; i += 111 {
		got, err := c.Lookup(pts[i])
		if err != nil {
			t.Fatal(err)
		}
		want, err := r.Lookup(pts[i])
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("lookup %v over wire: %v, direct: %v", pts[i], got, want)
		}
	}

	rect := workload.QueryRects(dims, 1, 0.4, 77)[0]
	wirePts, wirePays, truncated, err := c.Range(rect, 0)
	if err != nil {
		t.Fatal(err)
	}
	if truncated {
		t.Fatal("untruncated query reported truncated")
	}
	direct := collect(t, func(v bvtree.Visitor) error { return r.RangeQuery(rect, v) })
	if len(wirePts) != len(direct) {
		t.Fatalf("range over wire: %d items, direct: %d", len(wirePts), len(direct))
	}
	wn, err := c.Count(rect)
	if err != nil {
		t.Fatal(err)
	}
	if wn != len(direct) {
		t.Fatalf("count over wire %d, want %d", wn, len(direct))
	}
	_ = wirePays

	// Truncation: limit smaller than the result set.
	if len(direct) > 3 {
		lp, _, trunc, err := c.Range(rect, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !trunc || len(lp) != 3 {
			t.Fatalf("limit 3: got %d items, truncated=%v", len(lp), trunc)
		}
	}

	gotN, err := c.Nearest(pts[5], 7)
	if err != nil {
		t.Fatal(err)
	}
	wantN, err := r.Nearest(pts[5], 7)
	if err != nil {
		t.Fatal(err)
	}
	sameNeighbors(t, "wire nearest", gotN, wantN)

	found, err := c.Delete(pts[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("delete of stored point reported not found")
	}
	found, err = c.Delete(pts[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Fatal("second delete of same point reported found")
	}

	m := s.Metrics()
	if m.Ops["insert"].Requests != n {
		t.Fatalf("server counted %d inserts, want %d", m.Ops["insert"].Requests, n)
	}
	if m.Ops["insert"].Latency.Count != n {
		t.Fatalf("insert latency histogram has %d samples, want %d", m.Ops["insert"].Latency.Count, n)
	}
	if m.BytesIn == 0 || m.BytesOut == 0 || m.Accepted == 0 {
		t.Fatalf("byte/connection counters not advancing: %+v", m)
	}
}

// TestShardServerPipelining proves the pipelining contract: many
// requests sent without awaiting replies, replies delivered strictly
// in request order.
func TestShardServerPipelining(t *testing.T) {
	const dims, burst = 2, 200
	_, addr := startServer(t, dims, 4, ServerConfig{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	pts, err := workload.Generate(workload.Uniform, dims, burst, 19)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]uint32, 0, burst)
	for i, p := range pts {
		id, err := c.SendInsert(p, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < burst; i++ {
		id, err := c.ReadReply()
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if id != ids[i] {
			t.Fatalf("reply %d has id %d, want %d: replies out of request order", i, id, ids[i])
		}
	}
	// The connection is still coherent for synchronous use.
	total, _, err := c.Len()
	if err != nil {
		t.Fatal(err)
	}
	if total != burst {
		t.Fatalf("len after pipelined burst %d, want %d", total, burst)
	}
}

// rawConn speaks raw frames for malformed-input tests.
type rawConn struct {
	t    *testing.T
	conn net.Conn
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawConn{t: t, conn: conn}
}

func (r *rawConn) send(payload []byte) {
	r.t.Helper()
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	if _, err := r.conn.Write(append(frame, payload...)); err != nil {
		r.t.Fatal(err)
	}
}

// recv reads one response, returning its status and body.
func (r *rawConn) recv() (byte, []byte) {
	r.t.Helper()
	payload, err := readFrame(r.conn, nil, MaxFrame)
	if err != nil {
		r.t.Fatalf("read response: %v", err)
	}
	return payload[1], payload[headerSize:]
}

func req(op byte, id uint32, body ...byte) []byte {
	payload := []byte{ProtoVersion, op}
	payload = binary.BigEndian.AppendUint32(payload, id)
	return append(payload, body...)
}

func TestShardServerErrors(t *testing.T) {
	const dims = 2
	_, addr := startServer(t, dims, 2, ServerConfig{})

	t.Run("malformed-body", func(t *testing.T) {
		rc := dialRaw(t, addr)
		rc.send(req(OpInsert, 1, 0xAB)) // 1-byte body, needs dims*8+8
		status, _ := rc.recv()
		if status != StatusMalformed {
			t.Fatalf("status %#02x, want StatusMalformed", status)
		}
		// The connection survives body-level errors.
		rc.send(req(OpPing, 2))
		if status, _ := rc.recv(); status != StatusOK {
			t.Fatalf("ping after malformed request: status %#02x", status)
		}
	})

	t.Run("unknown-opcode", func(t *testing.T) {
		rc := dialRaw(t, addr)
		rc.send(req(0x7F, 1))
		status, _ := rc.recv()
		if status != StatusUnknownOp {
			t.Fatalf("status %#02x, want StatusUnknownOp", status)
		}
	})

	t.Run("bad-version", func(t *testing.T) {
		rc := dialRaw(t, addr)
		frame := req(OpPing, 1)
		frame[0] = 0x7E
		rc.send(frame)
		status, _ := rc.recv()
		if status != StatusBadVersion {
			t.Fatalf("status %#02x, want StatusBadVersion", status)
		}
	})

	t.Run("bad-rect", func(t *testing.T) {
		rc := dialRaw(t, addr)
		body := make([]byte, 0, dims*16)
		body = appendPoint(body, geometry.Point{10, 10}) // min > max
		body = appendPoint(body, geometry.Point{1, 1})
		rc.send(req(OpCount, 1, body...))
		status, _ := rc.recv()
		if status != StatusBadRequest {
			t.Fatalf("status %#02x, want StatusBadRequest", status)
		}
	})

	t.Run("nearest-k-zero", func(t *testing.T) {
		rc := dialRaw(t, addr)
		body := appendPoint(nil, geometry.Point{1, 1})
		body = binary.BigEndian.AppendUint32(body, 0)
		rc.send(req(OpNearest, 1, body...))
		status, _ := rc.recv()
		if status != StatusBadRequest {
			t.Fatalf("status %#02x, want StatusBadRequest", status)
		}
	})

	t.Run("oversized-frame-closes", func(t *testing.T) {
		rc := dialRaw(t, addr)
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
		if _, err := rc.conn.Write(hdr[:]); err != nil {
			t.Fatal(err)
		}
		rc.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.ReadAll(rc.conn); err != nil {
			t.Fatalf("expected clean close after oversized frame, got %v", err)
		}
	})

	t.Run("short-frame-closes", func(t *testing.T) {
		rc := dialRaw(t, addr)
		// Announce a 2-byte payload: below the 6-byte header minimum.
		// The server drops the connection; depending on whether our
		// bytes were consumed before the close we see EOF or a reset.
		rc.send([]byte{0x01, 0x02})
		rc.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.ReadAll(rc.conn); err != nil && !isConnReset(err) {
			t.Fatalf("expected connection teardown after short frame, got %v", err)
		}
	})
}

// TestShardServerRangeTruncationIsRepeatable: a Range cut at its limit
// returns a prefix of the shard-by-shard delivery, so two identical
// requests against an unchanged state get the same items, in ascending
// shard order.
func TestShardServerRangeTruncationIsRepeatable(t *testing.T) {
	const dims, n, limit = 2, 4000, 2500
	s, addr := startServer(t, dims, 4, ServerConfig{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pts, err := workload.Generate(workload.Uniform, dims, n, 29)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if err := c.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	rect := geometry.UniverseRect(dims)
	r := s.Router()
	if targets, err := r.shardsForRect(rect); err != nil || len(targets) != 4 {
		t.Fatalf("window touches shards %v (%v), want all 4", targets, err)
	}

	var first []uint64
	for round := 0; round < 2; round++ {
		got, pays, truncated, err := c.Range(rect, limit)
		if err != nil {
			t.Fatal(err)
		}
		if !truncated || len(pays) != limit {
			t.Fatalf("round %d: %d items, truncated=%v; want %d, truncated", round, len(pays), truncated, limit)
		}
		last := 0
		for i, p := range got {
			shard, err := r.ShardFor(p)
			if err != nil {
				t.Fatal(err)
			}
			if shard < last {
				t.Fatalf("round %d: item %d is from shard %d after an item from shard %d", round, i, shard, last)
			}
			last = shard
		}
		if round == 0 {
			first = pays
		} else if !slices.Equal(pays, first) {
			t.Fatal("two identical truncated Range requests returned different items")
		}
	}
}

// TestShardServerPoisonedShard is DESIGN.md §15's claim over the wire: a
// shard whose reads fail with storage.ErrPoisoned fails only the requests
// that touch it, each with StatusInternal carrying the cause, while the
// same connection goes on serving the other shards.
func TestShardServerPoisonedShard(t *testing.T) {
	const dims, n, bad = 2, 2000, 3
	plan, err := PlanUniform(dims, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	engines := newEngines(t, "mem", plan)
	healthy, err := NewRouter(plan, engines)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := workload.Generate(workload.Uniform, dims, n, 37)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if err := healthy.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	cause := fmt.Errorf("shard %d: read page 7: %w", bad, storage.ErrPoisoned)
	routed := slices.Clone(engines)
	routed[bad] = &errEngine{Engine: engines[bad], err: cause}
	r, err := NewRouter(plan, routed)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := serve(t, NewServer(r, ServerConfig{}), ln)
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	internal := func(what string, err error) {
		t.Helper()
		var st *ErrStatus
		if !errors.As(err, &st) || st.Status != StatusInternal {
			t.Fatalf("%s over the poisoned shard: %v, want StatusInternal", what, err)
		}
		if !strings.Contains(st.Msg, cause.Error()) {
			t.Fatalf("%s: message %q does not carry the cause %q", what, st.Msg, cause)
		}
	}
	universe := geometry.UniverseRect(dims)
	_, _, _, err = c.Range(universe, 0)
	internal("range", err)
	_, err = c.Count(universe)
	internal("count", err)

	// The low quadrant is shard 0 of the quadrant plan: its window's
	// decomposition avoids the poisoned shard.
	const quarter = uint64(1) << 62
	low := geometry.Rect{Min: geometry.Point{0, 0}, Max: geometry.Point{quarter, quarter}}
	if targets, err := r.shardsForRect(low); err != nil || slices.Contains(targets, bad) {
		t.Fatalf("low window touches shards %v (%v), want the poisoned shard avoided", targets, err)
	}
	_, pays, _, err := c.Range(low, 0)
	if err != nil {
		t.Fatalf("range avoiding the poisoned shard: %v", err)
	}
	want, err := healthy.Count(low)
	if err != nil {
		t.Fatal(err)
	}
	if len(pays) != want || want == 0 {
		t.Fatalf("range avoiding the poisoned shard: %d items, want %d (> 0)", len(pays), want)
	}
	i := slices.IndexFunc(pts, func(p geometry.Point) bool {
		shard, err := r.ShardFor(p)
		return err == nil && shard != bad
	})
	got, err := c.Lookup(pts[i])
	if err != nil {
		t.Fatalf("lookup on a healthy shard: %v", err)
	}
	if !slices.Contains(got, uint64(i)) {
		t.Fatalf("lookup on a healthy shard: %v, want payload %d", got, i)
	}
	if _, _, err := c.Ping(); err != nil {
		t.Fatalf("ping after the failures: %v", err)
	}
	if m := s.Metrics(); m.Accepted != 1 || m.Conns != 1 || m.Errors != 2 {
		t.Fatalf("server saw %d connections (%d open) and %d error responses, want 1, 1 and 2",
			m.Accepted, m.Conns, m.Errors)
	}
}

// TestShardServerPoisonedFileStore is TestShardServerPoisonedShard with
// the poison real: one shard is a paged tree whose FileStore, under a
// fault-injecting filesystem, failed a Sync. Its decoded cache holds 16
// nodes, so a Range and a Count over it read pages from the store, which
// refuses them with storage.ErrPoisoned; each gets StatusInternal
// carrying that text, and a Lookup on a healthy shard still succeeds on
// the same connection.
func TestShardServerPoisonedFileStore(t *testing.T) {
	const dims, n, bad = 2, 2000, 3
	plan, err := PlanUniform(dims, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	engines := newEngines(t, "mem", plan)
	ffs := fault.NewFS(vfs.OS{}, fault.Plan{})
	st, err := storage.OpenFileStore(filepath.Join(t.TempDir(), "bad.db"), storage.FileStoreOptions{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	tr, err := bvtree.Open(st, nil, bvtree.Options{Dims: dims, DataCapacity: 8, Fanout: 8, CacheNodes: 16})
	if err != nil {
		t.Fatal(err)
	}
	engines[bad] = tr
	r, err := NewRouter(plan, engines)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := workload.Generate(workload.Uniform, dims, n, 41)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if err := r.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(pts[0], uint64(n)); err != nil {
		t.Fatal(err)
	}
	ffs.SetPlan(fault.Plan{InjectAt: ffs.Ops() + 1, Mode: fault.ModeError})
	if err := tr.Flush(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("flush under an injected fault: %v, want %v", err, fault.ErrInjected)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serve(t, NewServer(r, ServerConfig{}), ln)
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	internal := func(what string, err error) {
		t.Helper()
		var es *ErrStatus
		if !errors.As(err, &es) || es.Status != StatusInternal {
			t.Fatalf("%s over the poisoned shard: %v, want StatusInternal", what, err)
		}
		if !strings.Contains(es.Msg, storage.ErrPoisoned.Error()) {
			t.Fatalf("%s: message %q does not carry %q", what, es.Msg, storage.ErrPoisoned)
		}
	}
	universe := geometry.UniverseRect(dims)
	_, _, _, err = c.Range(universe, 0)
	internal("range", err)
	_, err = c.Count(universe)
	internal("count", err)

	i := slices.IndexFunc(pts, func(p geometry.Point) bool {
		shard, err := r.ShardFor(p)
		return err == nil && shard != bad
	})
	got, err := c.Lookup(pts[i])
	if err != nil {
		t.Fatalf("lookup on a healthy shard: %v", err)
	}
	if !slices.Contains(got, uint64(i)) {
		t.Fatalf("lookup on a healthy shard: %v, want payload %d", got, i)
	}
}

func TestShardServerClose(t *testing.T) {
	s, addr := startServer(t, 2, 2, ServerConfig{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Insert(geometry.Point{1, 2}, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The closed server must refuse further work one way or the other:
	// either the connection is torn down or the request is answered
	// with StatusShutdown.
	err = c.Insert(geometry.Point{3, 4}, 2)
	if err == nil {
		t.Fatal("insert succeeded after server close")
	}
	if !IsStatus(err, StatusShutdown) && !errors.Is(err, io.EOF) &&
		!errors.Is(err, net.ErrClosed) && !isConnReset(err) {
		t.Fatalf("unexpected post-close error: %v", err)
	}
	// Dialing anew must fail: the listener is gone.
	if _, err := Dial(addr); err == nil {
		t.Fatal("dial succeeded after server close")
	}
}

func isConnReset(err error) bool {
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	var oe *net.OpError
	return errors.As(err, &oe)
}

// TestShardServerConcurrentClients drives several clients at once —
// the cross-connection parallelism the per-connection ordering model
// relies on — and checks the merged result.
func TestShardServerConcurrentClients(t *testing.T) {
	const dims, clients, perClient = 2, 4, 300
	s, addr := startServer(t, dims, 4, ServerConfig{})
	pts, err := workload.Generate(workload.Uniform, dims, clients*perClient, 43)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, clients)
	for g := 0; g < clients; g++ {
		go func(g int) {
			c, err := Dial(addr)
			if err != nil {
				errc <- err
				return
			}
			defer c.Close()
			for i := g * perClient; i < (g+1)*perClient; i++ {
				if err := c.Insert(pts[i], uint64(i)); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}(g)
	}
	for g := 0; g < clients; g++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Router().Len(); got != clients*perClient {
		t.Fatalf("router holds %d items, want %d", got, clients*perClient)
	}
	payloads := make([]int, 0, clients*perClient)
	err = s.Router().Scan(func(_ geometry.Point, payload uint64) bool {
		payloads = append(payloads, int(payload))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Ints(payloads)
	for i, v := range payloads {
		if v != i {
			t.Fatalf("payload %d missing from scan (found %d)", i, v)
		}
	}
}

// TestShardServerGoroutinePerConnection pins the connection model: one
// accept loop, and one goroutine per open connection, gone when its
// client hangs up; serve's cleanup checks that none is left after Close.
// Only serving goroutines are counted, so goroutines other tests or the
// runtime start or end meanwhile cannot fail it.
func TestShardServerGoroutinePerConnection(t *testing.T) {
	accept, served := servingGoroutines()
	_, addr := startServer(t, 2, 2, ServerConfig{})
	const conns = 3
	clients := make([]*Client, conns)
	for i := range clients {
		c, err := Dial(addr) // returns after a ping: the connection is served
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
	}
	waitServing(t, "open connections", func(a, c int) bool { return a == accept+1 && c == served+conns })
	for i, client := range clients {
		client.Close()
		waitServing(t, "after a client hung up", func(a, c int) bool { return a == accept+1 && c == served+conns-(i+1) })
	}
}

// listenerFunc adapts a function to net.Listener's Accept.
type listenerFunc struct {
	net.Listener
	accept func() (net.Conn, error)
}

func (l listenerFunc) Accept() (net.Conn, error) { return l.accept() }

// gateEngine closes started the first time RangeQuery is called.
type gateEngine struct {
	Engine
	once    sync.Once
	started chan struct{}
}

func (e *gateEngine) RangeQuery(rect geometry.Rect, visit bvtree.Visitor) error {
	e.once.Do(func() { close(e.started) })
	return e.Engine.RangeQuery(rect, visit)
}

// TestShardServerCloseWithStalledClient: a client that pipelines
// requests with large replies and never reads leaves the server blocked
// writing a response. Close must still return, because its deadline
// covers writes too.
func TestShardServerCloseWithStalledClient(t *testing.T) {
	const dims, n, requests = 2, 20000, 200
	plan, err := PlanUniform(dims, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	engines := newEngines(t, "mem", plan)
	gate := &gateEngine{Engine: engines[0], started: make(chan struct{})}
	engines[0] = gate
	r, err := NewRouter(plan, engines)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := workload.Generate(workload.Uniform, dims, n, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if err := r.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Small socket buffers on both sides: one whole-universe reply
	// (n items, ~480 KB) cannot fit, so the first one blocks the server.
	small := listenerFunc{Listener: ln, accept: func() (net.Conn, error) {
		conn, err := ln.Accept()
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetWriteBuffer(16 << 10)
		}
		return conn, err
	}}
	s := serve(t, NewServer(r, ServerConfig{}), small)
	rc := dialRaw(t, ln.Addr().String())
	rc.conn.(*net.TCPConn).SetReadBuffer(16 << 10)

	body := appendPoint(nil, make(geometry.Point, dims))
	body = appendPoint(body, geometry.UniverseRect(dims).Max)
	body = binary.BigEndian.AppendUint32(body, 0)
	for i := 0; i < requests; i++ {
		rc.send(req(OpRange, uint32(i+1), body...))
	}
	timeout := time.After(10 * time.Second)
	select {
	case <-gate.started: // the server is executing the first Range
	case <-timeout:
		t.Fatal("the server never started a Range")
	}

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-timeout:
		rc.conn.Close() // unblock the server, so the cleanup does not hang too
		t.Fatal("Close did not return with a client that stopped reading")
	}
}

// raceEnabled is set in race builds (race_test.go), whose runtime
// allocates where a normal build does not.
var raceEnabled bool

// TestServerRequestAllocs pins what the wire adds to a request's
// allocations: a round trip through client, connection and server, less
// the same call made on the router directly. Both run in one process on
// twin routers holding the same points, so the tree's and the router's
// own allocations cancel. The server allocates nothing per request; what
// is left is the client's result (a Lookup's payloads; a Range's
// coordinate slab, points and payloads).
func TestServerRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates: exact counts hold in normal builds only")
	}
	const dims = 2
	s, addr := startServer(t, dims, 4, ServerConfig{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	twin, err := NewRouter(s.Router().Plan(), newEngines(t, "mem", s.Router().Plan()))
	if err != nil {
		t.Fatal(err)
	}
	pts, err := workload.Generate(workload.Clustered, dims, 4000, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if err := s.Router().Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
		if err := twin.Insert(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	extra, err := workload.Generate(workload.Uniform, dims, 1000, 9)
	if err != nil {
		t.Fatal(err)
	}
	p := pts[17]
	one := geometry.Rect{Min: p, Max: p}
	visit := func(geometry.Point, uint64) bool { return true }
	wireNext, twinNext := 0, 0
	for _, tc := range []struct {
		name   string
		budget float64 // allocations the wire adds
		wire   func() error
		direct func() error
	}{
		{"lookup", 1,
			func() error { _, err := c.Lookup(p); return err },
			func() error { _, err := twin.Lookup(p); return err }},
		{"count", 0,
			func() error { _, err := c.Count(one); return err },
			func() error { _, err := twin.Count(one); return err }},
		{"range-one-item", 3,
			func() error { _, _, _, err := c.Range(one, 0); return err },
			func() error { return twin.RangeQuery(one, visit) }},
		{"insert", 0,
			func() error { wireNext++; return c.Insert(extra[wireNext], uint64(len(pts)+wireNext)) },
			func() error { twinNext++; return twin.Insert(extra[twinNext], uint64(len(pts)+twinNext)) }},
	} {
		wire, direct := allocsPerCall(t, tc.name, tc.wire), allocsPerCall(t, tc.name, tc.direct)
		if wire-direct > tc.budget {
			t.Errorf("%s: a round trip allocates %.0f times, the router call %.0f: the wire adds %.0f, budget %.0f",
				tc.name, wire, direct, wire-direct, tc.budget)
		}
	}
	if ping := allocsPerCall(t, "ping", func() error { _, _, err := c.Ping(); return err }); ping != 0 {
		t.Errorf("ping: a round trip allocates %.0f times, want 0", ping)
	}
}

func allocsPerCall(t *testing.T, name string, call func() error) float64 {
	t.Helper()
	var err error
	allocs := testing.AllocsPerRun(200, func() {
		if e := call(); e != nil {
			err = e
		}
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return allocs
}

// FuzzFrame feeds an arbitrary byte stream to one connection of a
// server. It must never panic; every whole frame before the first framing
// violation gets exactly one response, in order, echoing its request ID;
// a framing violation then closes the connection. Responses are read
// while the stream is still being written, which is also what catches a
// reused buffer that leaks one response into the next.
func FuzzFrame(f *testing.F) {
	const dims, maxFrame = 2, 4096
	pt := appendPoint(nil, geometry.Point{1 << 62, 3 << 62})
	rect := appendPoint(appendPoint(nil, geometry.Point{0, 0}), geometry.Point{^uint64(0), ^uint64(0)})
	frame := func(payload []byte) []byte {
		return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
	}
	stream := func(payloads ...[]byte) []byte {
		var out []byte
		for _, p := range payloads {
			out = append(out, frame(p)...)
		}
		return out
	}
	insert := req(OpInsert, 1, binary.BigEndian.AppendUint64(bytes.Clone(pt), 42)...)
	rangeReq := req(OpRange, 3, binary.BigEndian.AppendUint32(bytes.Clone(rect), 0)...)
	badVersion := req(OpPing, 9)
	badVersion[0] = 0x7E
	f.Add(stream(req(OpPing, 7)))
	f.Add(stream(insert, req(OpLookup, 2, pt...), rangeReq, req(OpCount, 4, rect...), req(OpLen, 5)))
	f.Add(stream(insert, req(OpNearest, 6, binary.BigEndian.AppendUint32(bytes.Clone(pt), 3)...),
		req(OpDelete, 7, binary.BigEndian.AppendUint64(bytes.Clone(pt), 42)...)))
	f.Add(stream(badVersion, req(0x7F, 10), req(OpInsert, 11, 0xAB), req(OpPing, 12)))
	f.Add(append(stream(req(OpPing, 1)), 0, 0, 0, 2, 1, 2))               // short frame
	f.Add(append(stream(req(OpPing, 1)), 0x7F, 0, 0, 0))                  // oversized frame
	f.Add(append(stream(req(OpPing, 1), insert), frame(rangeReq)[:9]...)) // partial frame

	plan, err := PlanUniform(dims, 2, 0)
	if err != nil {
		f.Fatal(err)
	}
	r, err := NewRouter(plan, newEngines(f, "mem", plan))
	if err != nil {
		f.Fatal(err)
	}
	s := NewServer(r, ServerConfig{MaxFrame: maxFrame, RangeLimitMax: 64})
	f.Fuzz(func(t *testing.T, in []byte) {
		// What the server must answer: each whole, well-framed request.
		var ids []uint32
		violation := false
		for rest := in; len(rest) >= 4; {
			n := binary.BigEndian.Uint32(rest)
			if n < headerSize || n > maxFrame {
				violation = true
				break
			}
			if uint64(len(rest)) < 4+uint64(n) {
				break
			}
			ids = append(ids, binary.BigEndian.Uint32(rest[6:]))
			rest = rest[4+n:]
		}

		client, server := net.Pipe()
		s.wg.Add(1)
		go s.serveConn(server)
		wrote := make(chan error, 1)
		go func() {
			_, err := client.Write(in)
			wrote <- err
		}()
		var buf []byte
		for i, id := range ids {
			var err error
			buf, err = readFrame(client, buf, MaxFrame)
			if err != nil {
				t.Fatalf("response %d of %d: %v", i+1, len(ids), err)
			}
			if buf[0] != ProtoVersion {
				t.Fatalf("response %d: version %#02x", i+1, buf[0])
			}
			if got := binary.BigEndian.Uint32(buf[2:]); got != id {
				t.Fatalf("response %d echoes ID %d, want %d", i+1, got, id)
			}
		}
		if violation {
			if _, err := readFrame(client, buf, MaxFrame); err != io.EOF {
				t.Fatalf("after a framing violation: %v, want the connection closed", err)
			}
		}
		client.Close()
		<-wrote
		s.wg.Wait()
	})
}
