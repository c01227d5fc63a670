package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// MaxFrameBytes caps the payload length of one TCP frame.  The 4-byte wire
// length is attacker/bug-controlled input: without a cap a single corrupt
// frame makes the reader allocate up to 4 GiB.  Oversized frames poison the
// endpoint (all receives fail) and close the offending connection.
const MaxFrameBytes uint32 = 64 << 20

// abortTag is the reserved wire tag of the cluster-abort control frame; its
// payload is the abort cause.  User tags are non-negative ints, so the tag
// can never collide.
const abortTag = ^uint32(0)

// TCPNetwork connects n ranks over loopback TCP sockets with a full mesh of
// lazily-established connections.  Wire format per message:
// [from:4][tag:4][len:4][payload].
type TCPNetwork struct {
	conns    []*tcpConn
	maxFrame uint32 // frame cap; fixed before the first goroutine starts
}

// NewTCP builds an n-rank network over 127.0.0.1 listeners.
func NewTCP(n int) (*TCPNetwork, error) { return newTCP(n, MaxFrameBytes) }

// newTCP is NewTCP with an explicit frame cap, so a test can shrink the cap
// of the one network it exercises.
func newTCP(n int, maxFrame uint32) (*TCPNetwork, error) {
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for j := 0; j < i; j++ {
				listeners[j].Close()
			}
			return nil, fmt.Errorf("transport: listen: %w", err)
		}
		listeners[i] = l
		addrs[i] = l.Addr().String()
	}
	tn := &TCPNetwork{conns: make([]*tcpConn, n), maxFrame: maxFrame}
	for i := 0; i < n; i++ {
		c := &tcpConn{
			net:      tn,
			rank:     i,
			size:     n,
			addrs:    addrs,
			listener: listeners[i],
			box:      newMailbox(),
			peers:    make([]tcpPeer, n),
		}
		tn.conns[i] = c
		go c.acceptLoop()
	}
	return tn, nil
}

// Conn returns rank r's endpoint.
func (t *TCPNetwork) Conn(r int) Conn { return t.conns[r] }

// Size returns the number of ranks.
func (t *TCPNetwork) Size() int { return len(t.conns) }

// Abort cancels the job on every rank.  The constructor keeps all endpoints
// in-process, so the token is delivered directly; rank-initiated aborts
// (Conn.Abort) additionally travel the wire as control frames, the path a
// multi-process deployment would rely on.
func (t *TCPNetwork) Abort(cause error) {
	err := abortError(cause)
	for _, c := range t.conns {
		c.box.abortWith(err)
	}
}

// Close shuts down every endpoint.
func (t *TCPNetwork) Close() {
	for _, c := range t.conns {
		c.Close()
	}
}

// tcpPeer is one lazily-dialed outgoing connection with its own write
// mutex, so sends to distinct ranks proceed in parallel and only writes to
// the same peer serialize (keeping frames from interleaving).
type tcpPeer struct {
	mu   sync.Mutex
	conn net.Conn
}

type tcpConn struct {
	net      *TCPNetwork
	rank     int
	size     int
	addrs    []string
	listener net.Listener
	box      *mailbox

	recvTimeout atomic.Int64
	done        atomic.Bool
	peers       []tcpPeer
}

func (c *tcpConn) Rank() int { return c.rank }
func (c *tcpConn) Size() int { return c.size }

func (c *tcpConn) SetRecvTimeout(d time.Duration) { c.recvTimeout.Store(int64(d)) }

func (c *tcpConn) acceptLoop() {
	for {
		conn, err := c.listener.Accept()
		if err != nil {
			return // listener closed
		}
		go c.readLoop(conn)
	}
}

func (c *tcpConn) readLoop(conn net.Conn) {
	defer conn.Close()
	var hdr [12]byte
	for {
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return
		}
		from := int(int32(binary.LittleEndian.Uint32(hdr[0:])))
		tag := binary.LittleEndian.Uint32(hdr[4:])
		length := binary.LittleEndian.Uint32(hdr[8:])
		// The wire length and sender are untrusted input: reject frames
		// that would allocate unboundedly or misattribute a sender, and
		// poison the endpoint so the corruption is visible instead of
		// silently hanging a later receive.
		if length > c.net.maxFrame {
			c.box.abortWith(fmt.Errorf("transport: rank %d: frame of %d bytes exceeds %d-byte cap", c.rank, length, c.net.maxFrame))
			return
		}
		if from < 0 || from >= c.size {
			c.box.abortWith(fmt.Errorf("transport: rank %d: frame from invalid rank %d (size %d)", c.rank, from, c.size))
			return
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(conn, payload); err != nil {
			return
		}
		if tag == abortTag {
			c.box.abortWith(abortError(fmt.Errorf("rank %d: %s", from, payload)))
			continue
		}
		// Frames racing a concurrent Close are dropped, as on a real NIC.
		_ = c.box.put(from, int(tag), payload)
	}
}

// writeFrame serializes one frame to peer `to`, dialing lazily.  Only the
// target peer's mutex is held, so concurrent sends to distinct ranks do not
// serialize behind each other.
func (c *tcpConn) writeFrame(to int, tag uint32, data []byte) error {
	if len(data) > int(c.net.maxFrame) {
		return fmt.Errorf("transport: send of %d bytes exceeds %d-byte frame cap", len(data), c.net.maxFrame)
	}
	p := &c.peers[to]
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn == nil {
		if c.done.Load() {
			return fmt.Errorf("transport: rank %d: %w", c.rank, ErrClosed)
		}
		conn, err := net.Dial("tcp", c.addrs[to])
		if err != nil {
			return fmt.Errorf("transport: dial rank %d: %w", to, err)
		}
		p.conn = conn
	}
	buf := make([]byte, 12+len(data))
	binary.LittleEndian.PutUint32(buf[0:], uint32(c.rank))
	binary.LittleEndian.PutUint32(buf[4:], tag)
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(data)))
	copy(buf[12:], data)
	_, err := p.conn.Write(buf)
	return err
}

func (c *tcpConn) Send(to, tag int, data []byte) error {
	if to < 0 || to >= c.size {
		return fmt.Errorf("transport: send to invalid rank %d (size %d)", to, c.size)
	}
	if tag < 0 {
		return fmt.Errorf("transport: negative tag %d is reserved", tag)
	}
	if c.done.Load() {
		return fmt.Errorf("transport: send from rank %d: %w", c.rank, ErrClosed)
	}
	// Once this rank has learned of a job abort, sends fail too (the
	// in-process transport gets this for free from the shared mailbox).
	if err := c.box.abortedErr(); err != nil {
		return err
	}
	if to == c.rank {
		return c.box.put(c.rank, tag, data)
	}
	return c.writeFrame(to, uint32(tag), data)
}

func (c *tcpConn) Recv(from, tag int) ([]byte, error) {
	return c.RecvTimeout(from, tag, time.Duration(c.recvTimeout.Load()))
}

func (c *tcpConn) RecvTimeout(from, tag int, timeout time.Duration) ([]byte, error) {
	if from < 0 || from >= c.size {
		return nil, fmt.Errorf("transport: recv from invalid rank %d (size %d)", from, c.size)
	}
	return c.box.get(from, tag, timeout)
}

// Abort cancels the job: every in-process mailbox is poisoned with the
// error value itself — so the cause keeps its identity for errors.Is/As on
// surviving ranks — and every peer is additionally sent an abort control
// frame (best effort), the path a multi-process deployment would rely on.
// The wire copy necessarily flattens the cause to a string; its arrival is
// absorbed by the mailbox's first-cause-wins abort.
func (c *tcpConn) Abort(cause error) {
	err := abortError(cause)
	c.net.Abort(err)
	msg := []byte(err.Error())
	for to := 0; to < c.size; to++ {
		if to == c.rank {
			continue
		}
		_ = c.writeFrame(to, abortTag, msg)
	}
}

func (c *tcpConn) Close() error {
	if c.done.Swap(true) {
		return nil
	}
	for i := range c.peers {
		p := &c.peers[i]
		p.mu.Lock()
		if p.conn != nil {
			p.conn.Close()
		}
		p.mu.Unlock()
	}
	c.box.close()
	return c.listener.Close()
}
