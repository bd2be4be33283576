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
// NOT safe for concurrent use: it owns one connection and matches
// responses to requests by arrival order (the protocol guarantees
// responses are sent in request order). Run one Client per goroutine.
//
// The typed methods (Insert, Lookup, Range, …) are synchronous: send,
// flush, await the reply. For pipelining, queue requests with the
// Send* methods and collect replies with ReadReply — up to the server's
// advertised in-flight window (see PROTOCOL.md).
type Client struct {
	conn   net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
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

// send queues one request frame; the caller must Flush (or use do).
func (c *Client) send(op byte, body []byte) (uint32, error) {
	c.nextID++
	id := c.nextID
	payload := make([]byte, 0, headerSize+len(body))
	payload = append(payload, ProtoVersion, op)
	payload = binary.BigEndian.AppendUint32(payload, id)
	payload = append(payload, body...)
	return id, writeFrame(c.bw, payload)
}

// recv reads one response frame and returns its request ID and body.
// A non-OK status is returned as *ErrStatus (with the ID still valid).
func (c *Client) recv() (uint32, []byte, error) {
	payload, err := readFrame(c.br, MaxFrame)
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

// do is one synchronous round trip.
func (c *Client) do(op byte, body []byte) ([]byte, error) {
	id, err := c.send(op, body)
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
	resp, err := c.do(OpPing, nil)
	if err != nil {
		return 0, 0, err
	}
	if len(resp) != 3 {
		return 0, 0, fmt.Errorf("shard: ping reply %d bytes, want 3", len(resp))
	}
	return int(resp[0]), int(binary.BigEndian.Uint16(resp[1:])), nil
}

// Insert stores (p, payload).
func (c *Client) Insert(p geometry.Point, payload uint64) error {
	body := appendPoint(nil, p)
	body = binary.BigEndian.AppendUint64(body, payload)
	_, err := c.do(OpInsert, body)
	return err
}

// SendInsert queues an insert without waiting for its reply; pair with
// ReadReply. Flush is called automatically by the next synchronous
// method, or call it explicitly.
func (c *Client) SendInsert(p geometry.Point, payload uint64) (uint32, error) {
	body := appendPoint(nil, p)
	body = binary.BigEndian.AppendUint64(body, payload)
	return c.send(OpInsert, body)
}

// SendLookup queues a lookup without waiting for its reply.
func (c *Client) SendLookup(p geometry.Point) (uint32, error) {
	return c.send(OpLookup, appendPoint(nil, p))
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
	body := appendPoint(nil, p)
	body = binary.BigEndian.AppendUint64(body, payload)
	resp, err := c.do(OpDelete, body)
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
	resp, err := c.do(OpLookup, appendPoint(nil, p))
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

// Range returns up to limit items inside rect (limit 0 = the server's
// cap) and whether the result was truncated at the limit.
func (c *Client) Range(rect geometry.Rect, limit int) (pts []geometry.Point, payloads []uint64, truncated bool, err error) {
	body := appendPoint(nil, rect.Min)
	body = appendPoint(body, rect.Max)
	body = binary.BigEndian.AppendUint32(body, uint32(limit))
	resp, err := c.do(OpRange, body)
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
	pts = make([]geometry.Point, n)
	payloads = make([]uint64, n)
	for i := 0; i < n; i++ {
		p, rest, _ := parsePoint(items[i*stride:(i+1)*stride], c.dims)
		pts[i] = p
		payloads[i] = binary.BigEndian.Uint64(rest)
	}
	return pts, payloads, truncated, nil
}

// Count returns the number of items inside rect.
func (c *Client) Count(rect geometry.Rect) (int, error) {
	body := appendPoint(nil, rect.Min)
	body = appendPoint(body, rect.Max)
	resp, err := c.do(OpCount, body)
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
	body := appendPoint(nil, p)
	body = binary.BigEndian.AppendUint32(body, uint32(k))
	resp, err := c.do(OpNearest, body)
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
	for i := 0; i < n; i++ {
		pt, rest, _ := parsePoint(items[i*stride:(i+1)*stride], c.dims)
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
	resp, err := c.do(OpLen, nil)
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
