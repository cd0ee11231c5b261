//go:build linux

package reactor

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"syscall"
	"time"
)

// Supported reports whether this platform has a reactor poller.
const Supported = true

// epollET requests edge-triggered delivery. syscall.EPOLLET is declared
// as a negative int; the Events field is a uint32, so spell the bit out.
const epollET = uint32(1) << 31

// epollPoller is the linux backend: one epoll instance plus a non-blocking
// wakeup pipe registered level-triggered (it is fully drained on every
// wakeup, so level vs edge is immaterial — level keeps a missed drain from
// wedging the loop). The epoll descriptor is itself non-blocking and held by
// an os.File, so the Go runtime's netpoller watches it (nested epoll) and
// wait blocks no thread: with nothing ready the poll goroutine parks in
// internal/poll and its P goes to whatever a Post just made runnable.
type epollPoller struct {
	epfd   int                // owned by f; add/mod/del use the number
	f      *os.File           // keeps epfd open and on the netpoller
	rc     syscall.RawConn    // f's
	poll   func(uintptr) bool // pollOnce, bound once: rc.Read gets no fresh closure
	wakeR  int
	wakeW  int
	kevs   []syscall.EpollEvent // reused across waits: no per-wait allocation
	closeO sync.Once

	// One wait's state, shared with pollOnce. Poll-goroutine only.
	n       int // pollOnce's last epoll_wait
	err     error
	noPark  bool // timeoutMs == 0: report what is ready, never park
	armedMs int  // timeout behind f's read deadline; 0 none, -1 expired
}

func newPoller() (poller, error) {
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return nil, fmt.Errorf("reactor: epoll_create1: %w", err)
	}
	var p [2]int
	if err := syscall.Pipe2(p[:], syscall.O_NONBLOCK|syscall.O_CLOEXEC); err != nil {
		syscall.Close(epfd)
		return nil, fmt.Errorf("reactor: pipe2: %w", err)
	}
	// os.NewFile puts only an already non-blocking descriptor on the
	// netpoller, and only a file that is on it accepts a deadline.
	syscall.SetNonblock(epfd, true)
	ep := &epollPoller{epfd: epfd, f: os.NewFile(uintptr(epfd), "epoll"), wakeR: p[0], wakeW: p[1]}
	ep.poll = ep.pollOnce
	if err = ep.f.SetReadDeadline(time.Time{}); err == nil {
		ep.rc, err = ep.f.SyscallConn()
	}
	if err != nil {
		ep.close()
		return nil, fmt.Errorf("reactor: epoll fd not on the netpoller: %w", err)
	}
	ev := syscall.EpollEvent{Events: syscall.EPOLLIN, Fd: int32(ep.wakeR)}
	if err := syscall.EpollCtl(epfd, syscall.EPOLL_CTL_ADD, ep.wakeR, &ev); err != nil {
		ep.close()
		return nil, fmt.Errorf("reactor: register wakeup pipe: %w", err)
	}
	return ep, nil
}

func (p *epollPoller) mask(w bool) uint32 {
	m := uint32(syscall.EPOLLIN|syscall.EPOLLRDHUP) | epollET
	if w {
		m |= uint32(syscall.EPOLLOUT)
	}
	return m
}

func (p *epollPoller) add(fd int, w bool) error {
	ev := syscall.EpollEvent{Events: p.mask(w), Fd: int32(fd)}
	return syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_ADD, fd, &ev)
}

func (p *epollPoller) mod(fd int, w bool) error {
	ev := syscall.EpollEvent{Events: p.mask(w), Fd: int32(fd)}
	return syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_MOD, fd, &ev)
}

func (p *epollPoller) del(fd int) error {
	return syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_DEL, fd, nil)
}

func (p *epollPoller) wait(evs []pollEvent, timeoutMs int) (int, bool, error) {
	if len(p.kevs) < len(evs) {
		p.kevs = make([]syscall.EpollEvent, len(evs))
	}
	// The read deadline is the timer-driven return, re-armed only when the
	// timeout changes: a deadline set earlier for as many milliseconds fires
	// no later than one set now would.
	if ms := max(timeoutMs, 0); ms != p.armedMs {
		var at time.Time
		if ms > 0 {
			at = time.Now().Add(time.Duration(ms) * time.Millisecond)
		}
		p.f.SetReadDeadline(at) // refused only once closed, which Read reports
		p.armedMs = ms
	}
	p.noPark = timeoutMs == 0
	if err := p.rc.Read(p.poll); errors.Is(err, os.ErrDeadlineExceeded) {
		p.armedMs = -1 // stays expired until re-armed
		return 0, false, nil
	} else if err != nil {
		return 0, false, fmt.Errorf("reactor: poller closed: %w", err)
	}
	if p.err != nil {
		return 0, false, fmt.Errorf("reactor: epoll_wait: %w", p.err)
	}
	out, woken := 0, false
	for i := 0; i < p.n; i++ {
		fd := int(p.kevs[i].Fd)
		if fd == p.wakeR {
			woken = true
			p.drainWake()
			continue
		}
		e := p.kevs[i].Events
		evs[out] = pollEvent{
			fd:       fd,
			readable: e&(syscall.EPOLLIN|syscall.EPOLLPRI) != 0,
			writable: e&syscall.EPOLLOUT != 0,
			hup:      e&(syscall.EPOLLRDHUP|syscall.EPOLLHUP|syscall.EPOLLERR) != 0,
		}
		out++
	}
	return out, woken, nil
}

// pollOnce is wait's RawConn.Read callback: a zero-timeout epoll_wait.
// Returning false parks the goroutine until the epoll descriptor turns
// readable (Read calls pollOnce again) or the deadline passes.
func (p *epollPoller) pollOnce(fd uintptr) bool {
	for {
		p.n, p.err = syscall.EpollWait(int(fd), p.kevs, 0)
		if p.err != syscall.EINTR {
			return p.n > 0 || p.err != nil || p.noPark
		}
	}
}

func (p *epollPoller) drainWake() {
	var buf [64]byte
	for {
		n, err := syscall.Read(p.wakeR, buf[:])
		if n <= 0 || err != nil {
			return
		}
	}
}

func (p *epollPoller) wake() {
	var one = [1]byte{1}
	for {
		_, err := syscall.Write(p.wakeW, one[:])
		if err == syscall.EINTR {
			continue
		}
		return // success, or EAGAIN: a wakeup is already pending
	}
}

func (p *epollPoller) close() {
	p.closeO.Do(func() {
		p.f.Close() // owns epfd
		syscall.Close(p.wakeR)
		syscall.Close(p.wakeW)
	})
}

// --- socket helpers -------------------------------------------------------

// resolveIPv4 parses "host:port" into a 4-byte address and port. An empty
// host binds the wildcard address.
func resolveIPv4(addr string) ([4]byte, int, error) {
	var ip4 [4]byte
	ta, err := net.ResolveTCPAddr("tcp4", addr)
	if err != nil {
		return ip4, 0, fmt.Errorf("reactor: resolve %q: %w", addr, err)
	}
	if ip := ta.IP.To4(); ip != nil {
		copy(ip4[:], ip)
	}
	return ip4, ta.Port, nil
}

// sysListen opens a non-blocking IPv4 listening socket on addr and returns
// its descriptor and bound address.
func sysListen(addr string) (int, string, error) {
	ip4, port, err := resolveIPv4(addr)
	if err != nil {
		return -1, "", err
	}
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return -1, "", fmt.Errorf("reactor: socket: %w", err)
	}
	syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_REUSEADDR, 1)
	sa := &syscall.SockaddrInet4{Port: port, Addr: ip4}
	if err := syscall.Bind(fd, sa); err != nil {
		syscall.Close(fd)
		return -1, "", fmt.Errorf("reactor: bind %s: %w", addr, err)
	}
	if err := syscall.Listen(fd, 4096); err != nil {
		syscall.Close(fd)
		return -1, "", fmt.Errorf("reactor: listen %s: %w", addr, err)
	}
	bound, err := syscall.Getsockname(fd)
	if err != nil {
		syscall.Close(fd)
		return -1, "", fmt.Errorf("reactor: getsockname: %w", err)
	}
	b := bound.(*syscall.SockaddrInet4)
	laddr := net.JoinHostPort(net.IP(b.Addr[:]).String(), fmt.Sprint(b.Port))
	return fd, laddr, nil
}

// sysAccept accepts one pending connection non-blocking + close-on-exec.
// Any error (including EAGAIN) ends the caller's accept drain.
func sysAccept(lfd int) (int, error) {
	for {
		fd, _, err := syscall.Accept4(lfd, syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC)
		if err == syscall.EINTR || err == syscall.ECONNABORTED {
			continue
		}
		if err != nil {
			return -1, err
		}
		syscall.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1)
		return fd, nil
	}
}

// sysDial performs a blocking IPv4 connect and hands back the descriptor
// (the caller registers it, which flips it non-blocking).
func sysDial(addr string) (int, error) {
	ip4, port, err := resolveIPv4(addr)
	if err != nil {
		return -1, err
	}
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return -1, fmt.Errorf("reactor: socket: %w", err)
	}
	sa := &syscall.SockaddrInet4{Port: port, Addr: ip4}
	if err := syscall.Connect(fd, sa); err != nil {
		syscall.Close(fd)
		return -1, fmt.Errorf("reactor: connect %s: %w", addr, err)
	}
	syscall.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1)
	return fd, nil
}

func sysSetNonblock(fd int) error { return syscall.SetNonblock(fd, true) }

func sysRead(fd int, p []byte) (int, error) { return syscall.Read(fd, p) }

func sysWrite(fd int, p []byte) (int, error) { return syscall.Write(fd, p) }

func sysClose(fd int) error { return syscall.Close(fd) }

func wouldBlock(err error) bool {
	return errors.Is(err, syscall.EAGAIN) || errors.Is(err, syscall.EWOULDBLOCK)
}

func isEINTR(err error) bool { return errors.Is(err, syscall.EINTR) }

// sysPeerAddr formats the peer address of a connected socket.
func sysPeerAddr(fd int) string {
	sa, err := syscall.Getpeername(fd)
	if err != nil {
		return ""
	}
	if s4, ok := sa.(*syscall.SockaddrInet4); ok {
		return net.JoinHostPort(net.IP(s4.Addr[:]).String(), fmt.Sprint(s4.Port))
	}
	return ""
}
