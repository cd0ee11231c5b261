//go:build !linux

package reactor

import "errors"

func setSndbuf(fd, size int) error { return errors.New("no SO_SNDBUF hook") }
