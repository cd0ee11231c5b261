//go:build !linux

package reactor

import "errors"

// Supported reports whether this platform has a reactor poller. Without
// one, New returns ErrUnsupported and callers use their portable
// goroutine-per-connection fallback (netloop's default transport).
const Supported = false

var errStub = errors.New("reactor: unsupported platform")

func newPoller() (poller, error) { return nil, ErrUnsupported }

func sysListen(addr string) (int, string, error) { return -1, "", errStub }

func sysAccept(lfd int) (int, error) { return -1, errStub }

func sysDial(addr string) (int, error) { return -1, errStub }

func sysSetNonblock(fd int) error { return errStub }

func sysRead(fd int, p []byte) (int, error) { return 0, errStub }

func sysWrite(fd int, p []byte) (int, error) { return 0, errStub }

func sysClose(fd int) error { return errStub }

func wouldBlock(err error) bool { return false }

func isEINTR(err error) bool { return false }

func sysPeerAddr(fd int) string { return "" }
