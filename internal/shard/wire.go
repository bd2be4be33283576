package shard

import (
	"encoding/binary"
	"fmt"
	"io"

	"bvtree/internal/geometry"
)

// Wire protocol (authoritative prose: PROTOCOL.md). Every message —
// request or response — is one frame:
//
//	uint32 big-endian payload length | payload
//
// A request payload is
//
//	version(1) opcode(1) requestID(uint32 BE) body
//
// and a response payload is
//
//	version(1) status(1) requestID(uint32 BE) body
//
// where the request ID is echoed verbatim. Multi-byte integers are
// big-endian throughout; points are Dims consecutive uint64
// coordinates. Responses are delivered in request order per
// connection, so clients may pipeline freely.

// ProtoVersion is the wire protocol version byte. A server rejects
// frames carrying any other version with StatusBadVersion.
const ProtoVersion = 0x01

// Request opcodes.
const (
	OpPing    = 0x01 // body: none            → dims(1) shards(uint16)
	OpInsert  = 0x02 // body: point payload   → none
	OpDelete  = 0x03 // body: point payload   → found(1)
	OpLookup  = 0x04 // body: point           → count(uint32) payloads
	OpRange   = 0x05 // body: min max limit   → count(uint32) truncated(1) items
	OpCount   = 0x06 // body: min max         → count(uint64)
	OpNearest = 0x07 // body: point k(uint32) → count(uint32) neighbors
	OpLen     = 0x08 // body: none            → total(uint64) shards(uint16) lens
)

// Response status codes. Statuses other than StatusOK carry a UTF-8
// error message as the response body.
const (
	StatusOK         = 0x00
	StatusMalformed  = 0x01 // body shorter or longer than the opcode requires
	StatusUnknownOp  = 0x02 // opcode not in the table above
	StatusBadRequest = 0x03 // arguments rejected (e.g. rect min > max, k = 0)
	StatusInternal   = 0x04 // shard engine failure
	StatusShutdown   = 0x05 // server is draining; retry against a new server
	StatusBadVersion = 0x06 // version byte is not ProtoVersion
)

// MaxFrame is the default upper bound on a frame's payload length in
// bytes (16 MiB). A frame announcing more closes the connection: an
// oversized announcement is indistinguishable from a desynchronised or
// hostile stream, and skipping it would stall the connection for the
// full announced length anyway.
const MaxFrame = 1 << 24

// headerSize is the fixed request/response preamble past the length
// field: version, opcode/status, request ID.
const headerSize = 1 + 1 + 4

// statusText names the non-OK statuses for error rendering.
func statusText(status byte) string {
	switch status {
	case StatusMalformed:
		return "malformed request"
	case StatusUnknownOp:
		return "unknown opcode"
	case StatusBadRequest:
		return "bad request"
	case StatusInternal:
		return "internal error"
	case StatusShutdown:
		return "server shutting down"
	case StatusBadVersion:
		return "unsupported protocol version"
	default:
		return fmt.Sprintf("status %#02x", status)
	}
}

// opName names an opcode for metrics and errors.
func opName(op byte) string {
	switch op {
	case OpPing:
		return "ping"
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpLookup:
		return "lookup"
	case OpRange:
		return "range"
	case OpCount:
		return "count"
	case OpNearest:
		return "nearest"
	case OpLen:
		return "len"
	default:
		return fmt.Sprintf("op%#02x", op)
	}
}

// frameHeader is where a frame's body starts: the length prefix and the
// fixed payload header.
const frameHeader = 4 + headerSize

// beginFrame starts a frame in buf, reusing its memory: a length prefix
// left for endFrame to fill in, then the version, b1 (the opcode of a
// request, the status of a response) and the request ID. The caller
// appends the body.
func beginFrame(buf []byte, b1 byte, id uint32) []byte {
	buf = append(buf[:0], 0, 0, 0, 0, ProtoVersion, b1)
	return binary.BigEndian.AppendUint32(buf, id)
}

// endFrame fills in the length prefix of a frame begun by beginFrame.
func endFrame(frame []byte) []byte {
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	return frame
}

// readFrame reads one frame's payload into buf, growing it when it is too
// small, and enforces maxFrame. The payload is valid until buf is reused;
// pass nil for a buffer of its own.
func readFrame(r io.Reader, buf []byte, maxFrame int) ([]byte, error) {
	if cap(buf) < headerSize {
		buf = make([]byte, 0, 64)
	}
	hdr := buf[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return buf, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n < headerSize {
		return buf, fmt.Errorf("shard: frame payload %d bytes, below %d-byte header", n, headerSize)
	}
	if int(n) > maxFrame {
		return buf, fmt.Errorf("shard: frame payload %d bytes exceeds limit %d", n, maxFrame)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf, err
	}
	return buf, nil
}

// keepBuf is the largest frame buffer a connection keeps for its next
// request: one that a large request or response grew past it is dropped.
const keepBuf = 64 << 10

// reuse returns buf for the next frame, or nil when it has grown past
// keepBuf.
func reuse(buf []byte) []byte {
	if cap(buf) > keepBuf {
		return nil
	}
	return buf
}

// appendPoint appends a point's coordinates.
func appendPoint(buf []byte, p geometry.Point) []byte {
	for _, c := range p {
		buf = binary.BigEndian.AppendUint64(buf, c)
	}
	return buf
}

// parsePoint decodes len(p) coordinates from buf into p, returning the
// remainder.
func parsePoint(buf []byte, p geometry.Point) ([]byte, bool) {
	if len(buf) < 8*len(p) {
		return buf, false
	}
	for d := range p {
		p[d] = binary.BigEndian.Uint64(buf[8*d:])
	}
	return buf[8*len(p):], true
}
