package reactor

// Compile-parity assertions for the platform seam: every sys* helper and
// the poller constructor must keep identical signatures across
// sys_linux.go and sys_stub.go. The file carries no build tag on purpose —
// `GOOS=windows go vet ./internal/reactor/` fails the moment the stub drifts
// from the linux backend, instead of the drift surfacing as a broken build
// on someone else's machine.

var (
	_ func(string) (int, string, error) = sysListen
	_ func(int) (int, error)            = sysAccept
	_ func(string) (int, error)         = sysDial
	_ func(int) error                   = sysSetNonblock
	_ func(int, []byte) (int, error)    = sysRead
	_ func(int, []byte) (int, error)    = sysWrite
	_ func(int) error                   = sysClose
	_ func(error) bool                  = wouldBlock
	_ func(error) bool                  = isEINTR
	_ func(int) string                  = sysPeerAddr
	_ func() (poller, error)            = newPoller
	_ bool                              = Supported
)
