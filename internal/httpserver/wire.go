package httpserver

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// maxHead bounds a head; a connection's read buffer, of this size, holds it.
const maxHead = 4 << 10

var errHeadTooLarge = errors.New("httpserver: head over 4 KiB")

// peekHead waits until br buffers a whole head and returns it, each line with
// its CRLF, the blank line that ends it left out. The caller discards
// len(head)+2 bytes once done with it; until then no read overwrites it.
func peekHead(br *bufio.Reader) ([]byte, error) {
	for {
		buf, _ := br.Peek(br.Buffered())
		if i := bytes.Index(buf, []byte("\r\n\r\n")); i >= 0 {
			return buf[:i+2], nil
		}
		if len(buf) >= maxHead {
			return nil, errHeadTooLarge
		}
		if _, err := br.Peek(len(buf) + 1); err != nil {
			return nil, err
		}
	}
}

// fields is what either side keeps of a head's header fields.
type fields struct {
	close, keepAlive bool // Connection tokens
	hosts, length    int  // Host count; Content-Length, -1 when absent
	chunked          bool // any Transfer-Encoding
}

// closes reports whether the connection closes after the message.
func (f fields) closes(http10 bool) bool { return f.close || http10 && !f.keepAlive }

// parseFields parses header field lines. It refuses a line without a colon or
// with a name that is not a token (a folded line too), a control character in
// a value (a bare LF too), and a Content-Length repeated or not a number.
func parseFields(buf []byte) (f fields, ok bool) {
	f.length = -1
	for len(buf) > 0 {
		var line []byte
		line, buf, _ = bytes.Cut(buf, []byte("\r\n"))
		k, v, ok := cutByte(line, ':')
		if !ok || len(k) == 0 || !all(k, tokenByte) || !all(v, fieldValueByte) {
			return f, false
		}
		switch v = bytes.Trim(v, " \t"); {
		case bytes.EqualFold(k, []byte("Connection")):
			f.close = f.close || hasToken(v, "close")
			f.keepAlive = f.keepAlive || hasToken(v, "keep-alive")
		case bytes.EqualFold(k, []byte("Host")):
			f.hosts++
		case bytes.EqualFold(k, []byte("Content-Length")):
			if n, ok := atoi(v, maxReplyBody); ok && f.length < 0 {
				f.length = n
			} else {
				return f, false
			}
		case bytes.EqualFold(k, []byte("Transfer-Encoding")):
			f.chunked = true
		}
	}
	return f, true
}

// head is what the server keeps of a request head.
type head struct {
	path  []byte // in the connection's buffer: valid until the head is discarded
	size  int    // sizeParam's
	close bool   // the connection closes after the reply
}

// parseHead parses a request head as peekHead returns it, or returns the
// status that refuses it. It accepts a subset of what net/http does
// (FuzzRequestHead holds it to that): single spaces in the request line, a
// target of targetByte only, one Host, and no body.
func parseHead(buf []byte) (h head, status int) {
	line, buf, _ := bytes.Cut(buf, []byte("\r\n"))
	method, rest, ok1 := cutByte(line, ' ')
	target, proto, ok2 := cutByte(rest, ' ')
	if ok1 && ok2 && string(method) != http.MethodGet {
		return h, http.StatusMethodNotAllowed
	}
	f, ok := parseFields(buf)
	http10 := string(proto) == "HTTP/1.0"
	if !ok1 || !ok2 || !ok || !http10 && string(proto) != "HTTP/1.1" || len(target) == 0 || target[0] != '/' ||
		!all(target, targetByte) || f.hosts > 1 || f.length > 0 || f.chunked {
		return h, http.StatusBadRequest
	}
	path, query, _ := cutByte(target, '?')
	return head{path: path, size: sizeParam(query), close: f.closes(http10)}, 0
}

// sizeParam reads size= from a raw query as url.Values' Get would (targetByte
// leaves nothing to unescape): 0 when it is absent or empty, -1 when it is not
// a number in 1..maxRequestBytes.
func sizeParam(query []byte) int {
	for len(query) > 0 {
		var field []byte
		field, query, _ = cutByte(query, '&')
		if k, v, _ := cutByte(field, '='); string(k) == "size" {
			if n, ok := atoi(v, maxRequestBytes); ok && n > 0 || len(v) == 0 {
				return n
			}
			return -1
		}
	}
	return 0
}

// replyHead is what the client keeps of a reply head.
type replyHead struct {
	status, length int
	close          bool // the server closes the connection after this reply
}

// maxReplyBody bounds a Content-Length: the client reads a body whole.
const maxReplyBody = 1 << 20

// parseReplyHead parses a reply head as peekHead returns it. A reply without
// Content-Length is refused: the service always sends one.
func parseReplyHead(buf []byte) (replyHead, error) {
	line, buf, _ := bytes.Cut(buf, []byte("\r\n"))
	f, ok := parseFields(buf)
	if len(line) < 12 || string(line[:7]) != "HTTP/1." || line[8] != ' ' || !ok || f.length < 0 || f.chunked {
		return replyHead{}, fmt.Errorf("httpserver: unsupported reply %q", line)
	}
	status, _ := atoi(line[9:12], 999)
	return replyHead{status: status, length: f.length, close: f.closes(line[7] == '0')}, nil
}

// writeReplyHead writes a reply's status line and header fields in bw's free
// space (a pipelined burst that fills bw makes append copy them out).
func writeReplyHead(bw *bufio.Writer, status int, contentType string, length int, close bool) {
	b := strconv.AppendInt(append(bw.AvailableBuffer(), "HTTP/1.1 "...), int64(status), 10)
	b = append(append(append(b, ' '), http.StatusText(status)...), "\r\nContent-Type: "...)
	b = append(append(b, contentType...), "\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(length), 10)
	if close {
		b = append(b, "\r\nConnection: close"...)
	}
	_, _ = bw.Write(append(b, "\r\n\r\n"...)) // a failed write shows at the flush
}

// atoi parses a decimal of digits only, at most max.
func atoi(b []byte, max int) (int, bool) {
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' || n*10+int(c-'0') > max {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, len(b) > 0
}

func cutByte(b []byte, sep byte) (before, after []byte, found bool) {
	if i := bytes.IndexByte(b, sep); i >= 0 {
		return b[:i], b[i+1:], true
	}
	return b, nil, false
}

func all(b []byte, ok func(byte) bool) bool {
	for _, c := range b {
		if !ok(c) {
			return false
		}
	}
	return true
}

func alnum(c byte) bool { return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' }

// targetByte: RFC 3986's unreserved characters and the delimiters the
// service uses. Escapes, '+' and ';' are refused, so the raw path and query
// are what net/url decodes them to.
func targetByte(c byte) bool { return alnum(c) || strings.IndexByte("-._~/?&=", c) >= 0 }

// tokenByte: RFC 9110's tchar, of header names and Connection tokens.
func tokenByte(c byte) bool { return alnum(c) || strings.IndexByte("!#$%&'*+-.^_`|~", c) >= 0 }

// fieldValueByte: anything but a control character other than HTAB.
func fieldValueByte(c byte) bool { return c == '\t' || c >= ' ' && c != 0x7f }

// hasToken reports whether the comma-separated list v holds token. A token is
// ASCII, so bytes.EqualFold folds it as HTTP does.
func hasToken(v []byte, token string) bool {
	for len(v) > 0 {
		var t []byte
		t, v, _ = cutByte(v, ',')
		if t = bytes.Trim(t, " \t"); all(t, tokenByte) && bytes.EqualFold(t, []byte(token)) {
			return true
		}
	}
	return false
}
