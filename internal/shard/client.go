package shard

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"net"

	"bvtree/internal/bvtree"
	"bvtree/internal/geometry"
)

// Client is a minimal client for the PROTOCOL.md wire protocol, used by
// the tests, the benchmark's server-mixed workload and as the reference
// implementation for the README's copy-pasteable snippet. A Client is
// NOT safe for concurrent use: it owns one connection, reuses one buffer
// for the request it is writing and one for the reply it has read, and
// matches responses to requests by arrival order (the protocol
// guarantees responses are sent in request order). Run one Client per
// goroutine.
//
// The typed methods (Insert, Lookup, Range, …) are synchronous: send,
// flush, await the reply. For pipelining, queue requests with the
// Send* methods and collect replies with ReadReply (see PROTOCOL.md
// on backpressure).
type Client struct {
	conn   net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	out    []byte // the request frame being built
	in     []byte // the last reply's payload
	nextID uint32
	dims   int
	shards int
}

// Dial connects to a bvserver at addr and pings it to learn the
// cluster shape (dimensionality, shard count).
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn: conn,
		br:   bufio.NewReader(conn),
		bw:   bufio.NewWriter(conn),
		// dims is unknown until the ping reply; 0 is fine for encoding a
		// bodyless ping.
	}
	dims, shards, err := c.Ping()
	if err != nil {
		conn.Close()
		return nil, err
	}
	c.dims, c.shards = dims, shards
	return c, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Dims returns the server's dimensionality (learned at Dial).
func (c *Client) Dims() int { return c.dims }

// Shards returns the server's shard count (learned at Dial).
func (c *Client) Shards() int { return c.shards }

// begin starts the next request frame in the client's send buffer; the
// caller appends the body and passes the frame to send.
func (c *Client) begin(op byte) []byte {
	c.nextID++
	return beginFrame(c.out, op, c.nextID)
}

// send queues the frame begun by begin and returns its request ID; the
// caller must Flush (or use do).
func (c *Client) send(frame []byte) (uint32, error) {
	_, err := c.bw.Write(endFrame(frame))
	c.out = reuse(frame)
	return c.nextID, err
}

// recv reads one response frame and returns its request ID and body. The
// body is valid until the next recv. A non-OK status is returned as
// *ErrStatus (with the ID still valid).
func (c *Client) recv() (uint32, []byte, error) {
	payload, err := readFrame(c.br, reuse(c.in), MaxFrame)
	c.in = payload
	if err != nil {
		return 0, nil, err
	}
	if payload[0] != ProtoVersion {
		return 0, nil, fmt.Errorf("shard: response version %#02x, want %#02x", payload[0], ProtoVersion)
	}
	id := binary.BigEndian.Uint32(payload[2:6])
	if status := payload[1]; status != StatusOK {
		return id, nil, &ErrStatus{Status: status, Msg: string(payload[headerSize:])}
	}
	return id, payload[headerSize:], nil
}

// Flush pushes every queued request onto the wire.
func (c *Client) Flush() error { return c.bw.Flush() }

// do is one synchronous round trip of the frame begun by begin.
func (c *Client) do(frame []byte) ([]byte, error) {
	id, err := c.send(frame)
	if err != nil {
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	gotID, resp, err := c.recv()
	if err != nil {
		return nil, err
	}
	if gotID != id {
		return nil, fmt.Errorf("shard: response for request %d, want %d (connection shared between goroutines?)", gotID, id)
	}
	return resp, nil
}

// Ping checks the server and returns its dimensionality and shard
// count.
func (c *Client) Ping() (dims, shards int, err error) {
	resp, err := c.do(c.begin(OpPing))
	if err != nil {
		return 0, 0, err
	}
	if len(resp) != 3 {
		return 0, 0, fmt.Errorf("shard: ping reply %d bytes, want 3", len(resp))
	}
	return int(resp[0]), int(binary.BigEndian.Uint16(resp[1:])), nil
}

// pointPayload begins an Insert or Delete of (p, payload).
func (c *Client) pointPayload(op byte, p geometry.Point, payload uint64) []byte {
	frame := appendPoint(c.begin(op), p)
	return binary.BigEndian.AppendUint64(frame, payload)
}

// Insert stores (p, payload).
func (c *Client) Insert(p geometry.Point, payload uint64) error {
	_, err := c.do(c.pointPayload(OpInsert, p, payload))
	return err
}

// SendInsert queues an insert without waiting for its reply; pair with
// ReadReply. Flush is called automatically by the next synchronous
// method, or call it explicitly.
func (c *Client) SendInsert(p geometry.Point, payload uint64) (uint32, error) {
	return c.send(c.pointPayload(OpInsert, p, payload))
}

// ReadReply consumes one pipelined reply, returning its request ID. A
// non-OK status surfaces as *ErrStatus; the reply body is discarded.
func (c *Client) ReadReply() (uint32, error) {
	id, _, err := c.recv()
	return id, err
}

// Delete removes one instance of (p, payload), reporting whether it
// was present.
func (c *Client) Delete(p geometry.Point, payload uint64) (bool, error) {
	resp, err := c.do(c.pointPayload(OpDelete, p, payload))
	if err != nil {
		return false, err
	}
	if len(resp) != 1 {
		return false, fmt.Errorf("shard: delete reply %d bytes, want 1", len(resp))
	}
	return resp[0] == 1, nil
}

// Lookup returns the payloads stored at exactly p.
func (c *Client) Lookup(p geometry.Point) ([]uint64, error) {
	resp, err := c.do(appendPoint(c.begin(OpLookup), p))
	if err != nil {
		return nil, err
	}
	if len(resp) < 4 {
		return nil, fmt.Errorf("shard: short lookup reply")
	}
	n := int(binary.BigEndian.Uint32(resp))
	if len(resp) != 4+8*n {
		return nil, fmt.Errorf("shard: lookup reply %d bytes, want %d", len(resp), 4+8*n)
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.BigEndian.Uint64(resp[4+8*i:])
	}
	return out, nil
}

// rectFrame begins a Range or Count over rect.
func (c *Client) rectFrame(op byte, rect geometry.Rect) []byte {
	return appendPoint(appendPoint(c.begin(op), rect.Min), rect.Max)
}

// Range returns up to limit items inside rect (limit 0 = the server's
// cap) and whether the result was truncated at the limit. The returned
// points share one coordinate slab.
func (c *Client) Range(rect geometry.Rect, limit int) (pts []geometry.Point, payloads []uint64, truncated bool, err error) {
	frame := binary.BigEndian.AppendUint32(c.rectFrame(OpRange, rect), uint32(limit))
	resp, err := c.do(frame)
	if err != nil {
		return nil, nil, false, err
	}
	if len(resp) < 5 {
		return nil, nil, false, fmt.Errorf("shard: short range reply")
	}
	n := int(binary.BigEndian.Uint32(resp))
	truncated = resp[4] == 1
	items := resp[5:]
	stride := 8*c.dims + 8
	if len(items) != n*stride {
		return nil, nil, false, fmt.Errorf("shard: range reply %d item bytes, want %d", len(items), n*stride)
	}
	coords := make([]uint64, n*c.dims)
	pts = make([]geometry.Point, n)
	payloads = make([]uint64, n)
	for i := range pts {
		pts[i] = coords[i*c.dims : (i+1)*c.dims : (i+1)*c.dims]
		rest, _ := parsePoint(items[i*stride:], pts[i])
		payloads[i] = binary.BigEndian.Uint64(rest)
	}
	return pts, payloads, truncated, nil
}

// Count returns the number of items inside rect.
func (c *Client) Count(rect geometry.Rect) (int, error) {
	resp, err := c.do(c.rectFrame(OpCount, rect))
	if err != nil {
		return 0, err
	}
	if len(resp) != 8 {
		return 0, fmt.Errorf("shard: count reply %d bytes, want 8", len(resp))
	}
	return int(binary.BigEndian.Uint64(resp)), nil
}

// Nearest returns the k stored items closest to p, nearest first.
func (c *Client) Nearest(p geometry.Point, k int) ([]bvtree.Neighbor, error) {
	frame := binary.BigEndian.AppendUint32(appendPoint(c.begin(OpNearest), p), uint32(k))
	resp, err := c.do(frame)
	if err != nil {
		return nil, err
	}
	if len(resp) < 4 {
		return nil, fmt.Errorf("shard: short nearest reply")
	}
	n := int(binary.BigEndian.Uint32(resp))
	items := resp[4:]
	stride := 8*c.dims + 16
	if len(items) != n*stride {
		return nil, fmt.Errorf("shard: nearest reply %d item bytes, want %d", len(items), n*stride)
	}
	out := make([]bvtree.Neighbor, n)
	for i := range out {
		pt := make(geometry.Point, c.dims)
		rest, _ := parsePoint(items[i*stride:], pt)
		out[i] = bvtree.Neighbor{
			Point:   pt,
			Payload: binary.BigEndian.Uint64(rest),
			Dist:    math.Float64frombits(binary.BigEndian.Uint64(rest[8:])),
		}
	}
	return out, nil
}

// Len returns the cluster's total item count and the per-shard counts.
func (c *Client) Len() (total int, perShard []int, err error) {
	resp, err := c.do(c.begin(OpLen))
	if err != nil {
		return 0, nil, err
	}
	if len(resp) < 10 {
		return 0, nil, fmt.Errorf("shard: short len reply")
	}
	total = int(binary.BigEndian.Uint64(resp))
	n := int(binary.BigEndian.Uint16(resp[8:]))
	if len(resp) != 10+8*n {
		return 0, nil, fmt.Errorf("shard: len reply %d bytes, want %d", len(resp), 10+8*n)
	}
	perShard = make([]int, n)
	for i := range perShard {
		perShard[i] = int(binary.BigEndian.Uint64(resp[10+8*i:]))
	}
	return total, perShard, nil
}
