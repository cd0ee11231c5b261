package httpserver

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// maxIdleConns bounds the keep-alive connections a Client keeps between
// requests, above the 100 closed-loop users of the largest load a driver
// runs.
const maxIdleConns = 256

// Client is a minimal HTTP client for driving the service under load. A
// request takes an idle keep-alive connection, or dials one, and gives it
// back once its reply is read whole. A connection whose request failed is
// closed, and the request is not retried: the server closes an idle
// connection only when it stops.
type Client struct {
	base    string
	addr    string // host:port, also the Host header
	timeout time.Duration
	idle    chan *clientConn
}

type clientConn struct {
	net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

// NewClient builds a client for the server at base (as returned by Start).
func NewClient(base string) *Client {
	return NewClientTimeout(base, 60*time.Second)
}

// NewClientTimeout builds a client with an explicit request timeout, one
// deadline for a request's dial, write and read together.
// Failure drills use short timeouts so a hung invocation shows up as a
// client-side timeout instead of wedging the scenario.
func NewClientTimeout(base string, timeout time.Duration) *Client {
	return &Client{base: base, addr: strings.TrimPrefix(base, "http://"), timeout: timeout,
		idle: make(chan *clientConn, maxIdleConns)}
}

// roundTrip sends GET path, with ?size=size when size > 0, and reads the
// reply's head. The caller reads the r.length-byte body from cc.br and then
// hands cc to release.
func (c *Client) roundTrip(path string, size int) (cc *clientConn, r replyHead, err error) {
	deadline := time.Now().Add(c.timeout)
	select {
	case cc = <-c.idle:
	default:
		nc, err := (&net.Dialer{Deadline: deadline}).Dial("tcp", c.addr)
		if err != nil {
			return nil, r, err
		}
		cc = &clientConn{Conn: nc, br: bufio.NewReaderSize(nc, maxHead), bw: bufio.NewWriter(nc)}
	}
	var buf []byte
	if err = cc.SetDeadline(deadline); err == nil {
		b := append(cc.bw.AvailableBuffer(), "GET "...)
		if b = append(b, path...); size > 0 {
			b = strconv.AppendInt(append(b, "?size="...), int64(size), 10)
		}
		b = append(append(append(b, " HTTP/1.1\r\nHost: "...), c.addr...), "\r\n\r\n"...)
		_, _ = cc.bw.Write(b) // a failed write shows at the flush
		err = cc.bw.Flush()
	}
	if err == nil {
		buf, err = peekHead(cc.br)
	}
	if err == nil {
		r, err = parseReplyHead(buf)
		_, _ = cc.br.Discard(len(buf) + 2)
	}
	if err != nil {
		_ = cc.Close()
		return nil, r, err
	}
	return cc, r, nil
}

// release gives cc back to the idle list when keep is set and the list has
// room, and closes it otherwise.
func (c *Client) release(cc *clientConn, keep bool) {
	if keep {
		select {
		case c.idle <- cc:
			return
		default:
		}
	}
	_ = cc.Close()
}

// readBody reads a reply's body whole and releases cc.
func (c *Client) readBody(cc *clientConn, r replyHead) ([]byte, error) {
	body := make([]byte, r.length)
	_, err := io.ReadFull(cc.br, body)
	c.release(cc, err == nil && !r.close)
	return body, err
}

// Healthz fetches /healthz and returns the reported status string
// ("ok", "degraded", "down") and the HTTP status code.
func (c *Client) Healthz() (string, int, error) {
	cc, r, err := c.roundTrip("/healthz", 0)
	if err != nil {
		return "", 0, err
	}
	body, err := c.readBody(cc, r)
	var v struct {
		Status string `json:"status"`
	}
	if err == nil {
		err = json.Unmarshal(body, &v)
	}
	return v.Status, r.status, err
}

// Encrypt issues one request and returns the response checksum.
func (c *Client) Encrypt(size int) (int64, error) {
	sum, _, err := c.Do(size)
	return sum, err
}

// Do issues one request and returns the checksum and the HTTP status code
// (0 on transport failure). Callers driving overload scenarios use the
// status to distinguish sheds (503) from successes and hard errors.
func (c *Client) Do(size int) (int64, int, error) {
	cc, r, err := c.roundTrip("/encrypt", size)
	if err != nil {
		return 0, 0, err
	}
	if r.status != http.StatusOK {
		body, err := c.readBody(cc, r)
		if err == nil {
			err = fmt.Errorf("httpserver: status %d: %s", r.status, body)
		}
		return 0, r.status, err
	}
	// A reply is at most 21 bytes ("%d\n" of an int64), parsed where it lies
	// in the connection's buffer.
	body, err := cc.br.Peek(r.length)
	if err != nil {
		c.release(cc, false)
		return 0, r.status, err
	}
	sum, err := strconv.ParseInt(string(bytes.TrimSpace(body)), 10, 64)
	if err != nil {
		err = fmt.Errorf("httpserver: bad response %q", body)
	}
	_, _ = cc.br.Discard(r.length)
	c.release(cc, !r.close)
	return sum, r.status, err
}
