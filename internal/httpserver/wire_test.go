package httpserver

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/kernels"
	"repro/internal/testutil/raceflag"
)

// TestServerSpeaksHTTP11 holds the server's HTTP/1.1 loop to net/http's
// reading of its replies, over raw connections: keep-alive, pipelining, the
// two ways a request asks to close, and every refusal.
func TestServerSpeaksHTTP11(t *testing.T) {
	s, c := startServer(t, Config{Mode: Jetty, Workers: 1, KernelBytes: 1024})
	want := kernels.NewCrypt(1024)
	want.RunSeq()
	sum := strconv.FormatInt(want.Checksum(), 10) + "\n"
	dial := func() (net.Conn, *bufio.Reader) {
		conn, err := net.Dial("tcp", c.addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
			t.Fatal(err)
		}
		return conn, bufio.NewReader(conn)
	}
	send := func(conn net.Conn, reqs string) {
		if _, err := io.WriteString(conn, reqs); err != nil {
			t.Fatal(err)
		}
	}
	// expect reads one reply, checks its status and body, and, when closes is
	// set, that the server closed the connection after it.
	expect := func(name string, br *bufio.Reader, status int, body string, closes bool) {
		t.Helper()
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != status || body != "" && string(got) != body || resp.ContentLength != int64(len(got)) {
			t.Fatalf("%s: status %d, body %q (Content-Length %d), err %v; want %d %q",
				name, resp.StatusCode, got, resp.ContentLength, err, status, body)
		}
		if resp.Close != closes {
			t.Fatalf("%s: reply says close=%v, want %v", name, resp.Close, closes)
		}
		if closes {
			if n, err := br.Read(make([]byte, 1)); n != 0 || err != io.EOF {
				t.Fatalf("%s: read after the reply: %d bytes, %v; want EOF", name, n, err)
			}
		}
	}
	const get = "GET /encrypt HTTP/1.1\r\nHost: x\r\n\r\n"

	conn, br := dial()
	for i := 0; i < 3; i++ {
		send(conn, get)
		expect("sequential", br, http.StatusOK, sum, false)
	}
	send(conn, get+get)
	expect("pipelined 1", br, http.StatusOK, sum, false)
	expect("pipelined 2", br, http.StatusOK, sum, false)
	send(conn, "GET /nowhere HTTP/1.1\r\nHost: x\r\n\r\n")
	expect("unknown path", br, http.StatusNotFound, "", false)
	for _, q := range []string{"0", "abc", strconv.Itoa(maxRequestBytes + 1)} {
		send(conn, "GET /encrypt?size="+q+" HTTP/1.1\r\nHost: x\r\n\r\n")
		expect("size="+q, br, http.StatusBadRequest, "bad size\n", false)
	}
	send(conn, "GET /encrypt HTTP/1.1\r\nHost: x\r\nConnection: keep-alive, Close\r\n\r\n")
	expect("Connection: close", br, http.StatusOK, sum, true)

	for _, tc := range []struct {
		name, req string
		status    int
	}{
		{"HTTP/1.0", "GET /encrypt HTTP/1.0\r\n\r\n", http.StatusOK},
		{"POST", "POST /encrypt HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello", http.StatusMethodNotAllowed},
		{"Content-Length: 5", "GET /encrypt HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello", http.StatusBadRequest},
		{"chunked", "GET /encrypt HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n", http.StatusBadRequest},
		{"5 KiB head", "GET /encrypt HTTP/1.1\r\nHost: x\r\nX-Pad: " + strings.Repeat("a", 5<<10) + "\r\n\r\n", http.StatusRequestHeaderFieldsTooLarge},
	} {
		conn, br := dial()
		send(conn, tc.req)
		body := ""
		if tc.status == http.StatusOK {
			body = sum
		}
		expect(tc.name, br, tc.status, body, true)
	}
	if s.Served() != 7 || s.Errors() != 3 {
		t.Fatalf("Served=%d Errors=%d, want 7 and the 3 bad sizes", s.Served(), s.Errors())
	}
}

// FuzzRequestHead holds the request-head parser, the one parser of input
// from outside the program, to net/http's: it never reads past maxHead, and
// whatever head it accepts http.ReadRequest reads alike, the same method,
// path, size= and close-after-reply.
func FuzzRequestHead(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		rd := bytes.NewReader(data)
		br := bufio.NewReaderSize(rd, maxHead)
		buf, err := peekHead(br)
		if n := len(data) - rd.Len(); n > maxHead {
			t.Fatalf("read %d bytes, over the %d-byte head bound", n, maxHead)
		}
		h, status := parseHead(buf)
		if err != nil || status != 0 {
			return
		}
		req, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			t.Fatalf("accepted %q, which net/http refuses: %v", data, err)
		}
		size := 0
		if q := req.URL.Query().Get("size"); q != "" {
			if n, err := strconv.Atoi(q); err == nil && n >= 1 && n <= maxRequestBytes {
				size = n
			} else {
				size = -1
			}
		}
		if req.Method != http.MethodGet || string(h.path) != req.URL.Path || h.size != size || h.close != req.Close {
			t.Fatalf("%q: parsed %q size %d close %v; net/http reads %s %q size %d close %v",
				data, h.path, h.size, h.close, req.Method, req.URL.Path, size, req.Close)
		}
	})
}

// TestRequestAllocs is the HTTP layer's allocation budget end to end: a
// request from a warm keep-alive Client over a loopback socket, client and
// server together, on one P as testing.AllocsPerRun measures. It costs
// either organisation nothing — the Pyjama one's Invoke(Wait) posts with its
// recycled waiter node as the completion — where net/http's client and server
// cost 74. The objects are the mean over the
// runs rounded down, like AllocsPerRun's; the bytes (MemStats.TotalAlloc) are
// the mean itself, so a stray object on some requests still shows — the
// /metrics span histograms, which the server installs, must add none.
func TestRequestAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	const runs = 2000
	budgets := map[Mode]struct {
		objects uint64
		bytes   float64
	}{Pyjama: {0, 8}, Jetty: {0, 4}}
	for mode, budget := range budgets {
		_, c := startServer(t, Config{Mode: mode, Workers: 1})
		request := func() {
			if _, err := c.Encrypt(1 << 10); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 10; i++ {
			request()
		}
		var before, after runtime.MemStats
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				request()
			}
			runtime.ReadMemStats(&after)
		}()
		objects := (after.Mallocs - before.Mallocs) / runs
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
		t.Logf("%v: %d allocs, %.1f B per request", mode, objects, bytes)
		if objects > budget.objects {
			t.Errorf("%v: %d allocs per request, want at most %d", mode, objects, budget.objects)
		}
		if bytes > budget.bytes {
			t.Errorf("%v: %.1f B per request, want at most %v", mode, bytes, budget.bytes)
		}
	}
}

// TestClientRefusesUnsupportedReplies: the client reads only replies that
// carry Content-Length, and a successful one only if it is a number.
func TestClientRefusesUnsupportedReplies(t *testing.T) {
	for reply, want := range map[string]string{
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n":                   `unsupported reply "HTTP/1.1 200 OK"`,
		"HTTP/1.1 200 OK\r\n\r\n":                                                 `unsupported reply "HTTP/1.1 200 OK"`,
		"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n":                            `unsupported reply "HTTP/1.1 200 OK"`,
		"SPDY/3 200 OK\r\nContent-Length: 0\r\n\r\n":                              `unsupported reply "SPDY/3 200 OK"`,
		"HTTP/1.1 200 OK\r\nContent-Length: 22\r\n\r\n" + strings.Repeat("1", 22): `bad response "1111111111111111111111"`,
	} {
		_, _, err := replyFrom(t, reply).Do(1)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%q: err %v, want %q", reply, err, want)
		}
	}
}

// replyFrom returns a client of a listener that answers one connection's
// first request with reply, read whole first.
func replyFrom(t *testing.T, reply string) *Client {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := peekHead(bufio.NewReaderSize(conn, maxHead)); err == nil {
			_, _ = io.WriteString(conn, reply)
		}
	}()
	return NewClientTimeout("http://"+ln.Addr().String(), 5*time.Second)
}
