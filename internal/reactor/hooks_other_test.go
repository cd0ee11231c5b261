//go:build !linux && !darwin

package reactor

import "errors"

func setSndbuf(fd, size int) error { return errors.New("no SO_SNDBUF hook") }
