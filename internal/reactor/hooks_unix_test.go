//go:build linux

package reactor

import "syscall"

// setSndbuf shrinks a socket's kernel send buffer to force partial writes.
func setSndbuf(fd, size int) error {
	return syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_SNDBUF, size)
}
