package device

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gid"
)

func fastCfg() Config {
	return Config{TransferLatency: time.Microsecond, BytesPerSecond: 1 << 40}
}

func newDevice(t *testing.T) *Device {
	t.Helper()
	reg := &gid.Registry{}
	d := New(0, reg, fastCfg())
	t.Cleanup(d.Stop)
	return d
}

func TestAllocFreeErrors(t *testing.T) {
	d := newDevice(t)
	if err := d.Alloc("a", 16); err != nil {
		t.Fatal(err)
	}
	if err := d.Alloc("a", 16); !errors.Is(err, ErrDupBuffer) {
		t.Fatalf("dup alloc: %v", err)
	}
	if err := d.Free("a"); err != nil {
		t.Fatal(err)
	}
	if err := d.Free("a"); !errors.Is(err, ErrNoBuffer) {
		t.Fatalf("double free: %v", err)
	}
	if err := d.CopyTo("ghost", nil); !errors.Is(err, ErrNoBuffer) {
		t.Fatalf("copy to missing: %v", err)
	}
}

func TestMemoryIsolation(t *testing.T) {
	// The defining property of a device target: its memory is a copy.
	d := newDevice(t)
	host := []byte{1, 2, 3, 4}
	if err := d.Alloc("buf", 4); err != nil {
		t.Fatal(err)
	}
	if err := d.CopyTo("buf", host); err != nil {
		t.Fatal(err)
	}
	host[0] = 99 // mutate host after the transfer
	got := make([]byte, 4)
	if err := d.CopyFrom("buf", got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Fatalf("device saw host mutation: %v", got)
	}
	// And mutations on the device require an explicit copy back.
	d.Launch(func(mem Mem) {
		b, _ := mem.Bytes("buf")
		b[1] = 42
	}).Wait()
	if host[1] == 42 {
		t.Fatal("device mutation leaked into host memory without CopyFrom")
	}
	d.CopyFrom("buf", got)
	if got[1] != 42 {
		t.Fatal("device mutation lost")
	}
}

func TestSizeMismatch(t *testing.T) {
	d := newDevice(t)
	d.Alloc("b", 8)
	if err := d.CopyTo("b", make([]byte, 4)); !errors.Is(err, ErrSize) {
		t.Fatalf("size mismatch: %v", err)
	}
	if err := d.CopyFrom("b", make([]byte, 16)); !errors.Is(err, ErrSize) {
		t.Fatalf("size mismatch: %v", err)
	}
}

func TestLaunchSerialInOrder(t *testing.T) {
	d := newDevice(t)
	var mu sync.Mutex
	var order []int
	var comps []interface{ Wait() error }
	for i := 0; i < 50; i++ {
		i := i
		comps = append(comps, d.Launch(func(Mem) {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		}))
	}
	for _, c := range comps {
		if err := c.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("kernels out of order: %v", order)
		}
	}
	if st := d.Stats(); st.KernelsRun != 50 {
		t.Fatalf("KernelsRun = %d", st.KernelsRun)
	}
}

func TestTargetDataLifecycle(t *testing.T) {
	d := newDevice(t)
	in := []byte("abcd")
	out := make([]byte, 4)
	err := d.TargetData([]Map{
		{Name: "in", Host: in, To: true},
		{Name: "out", Host: out, From: true},
	}, func() {
		d.Launch(func(mem Mem) {
			src, _ := mem.Bytes("in")
			dst, _ := mem.Bytes("out")
			for i := range src {
				dst[i] = src[i] + 1
			}
		}).Wait()
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "bcde" {
		t.Fatalf("out = %q", out)
	}
	// Buffers are freed at region exit.
	if st := d.Stats(); st.LiveBuffers != 0 {
		t.Fatalf("LiveBuffers = %d after region", st.LiveBuffers)
	}
}

func TestTargetDataFreesOnPanic(t *testing.T) {
	d := newDevice(t)
	err := d.TargetData([]Map{{Name: "x", Host: make([]byte, 8), To: true}}, func() {
		panic("kernel host code bug")
	})
	if err == nil {
		t.Fatal("panic swallowed")
	}
	if st := d.Stats(); st.LiveBuffers != 0 {
		t.Fatalf("LiveBuffers = %d after panicking region", st.LiveBuffers)
	}
}

func TestTargetFullConstruct(t *testing.T) {
	d := newDevice(t)
	data := []byte{10, 20, 30}
	err := d.Target([]Map{{Name: "v", Host: data, To: true, From: true}}, func(mem Mem) {
		b, _ := mem.Bytes("v")
		for i := range b {
			b[i] *= 2
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != 20 || data[2] != 60 {
		t.Fatalf("data = %v", data)
	}
}

func TestStatsTransfers(t *testing.T) {
	d := newDevice(t)
	d.Alloc("b", 1000)
	d.CopyTo("b", make([]byte, 1000))
	d.CopyFrom("b", make([]byte, 1000))
	st := d.Stats()
	if st.BytesToDevice != 1000 || st.BytesFromDevice != 1000 || st.Transfers != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTransferCostScalesWithSize(t *testing.T) {
	reg := &gid.Registry{}
	d := New(1, reg, Config{TransferLatency: time.Microsecond, BytesPerSecond: 1 << 20}) // 1 MiB/s: slow on purpose
	defer d.Stop()
	d.Alloc("big", 1<<18)
	start := time.Now()
	d.CopyTo("big", make([]byte, 1<<18))
	elapsed := time.Since(start)
	// 256 KiB at 1 MiB/s = 250ms nominal; accept half to dodge scheduler noise.
	if elapsed < 100*time.Millisecond {
		t.Fatalf("256KiB at 1MiB/s took only %v — transfer cost not simulated", elapsed)
	}
}

func TestDeviceAsVirtualTarget(t *testing.T) {
	// pjc maps `target device(0)` onto a target named "device0"; register
	// the simulated device's command queue under that name.
	reg := &gid.Registry{}
	rt := core.NewRuntime(reg)
	defer rt.Shutdown()
	d := New(0, reg, fastCfg())
	defer d.Stop()
	if err := rt.RegisterTarget(d.Name(), d.Queue()); err != nil {
		t.Fatal(err)
	}
	ran := false
	comp, err := rt.Invoke("device0", core.Wait, func() { ran = true })
	if err != nil || comp.Err() != nil {
		t.Fatal(err, comp.Err())
	}
	if !ran {
		t.Fatal("block did not run on the device queue")
	}
}

func TestStoppedDevice(t *testing.T) {
	reg := &gid.Registry{}
	d := New(2, reg, fastCfg())
	d.Stop()
	if err := d.Alloc("x", 4); !errors.Is(err, ErrStopped) {
		t.Fatalf("alloc on stopped device: %v", err)
	}
	if err := d.Launch(func(Mem) {}).Wait(); !errors.Is(err, ErrStopped) {
		t.Fatalf("launch on stopped device: %v", err)
	}
}

func TestTargetAsync(t *testing.T) {
	d := newDevice(t)
	data := []byte{1, 2, 3, 4}
	comp := d.TargetAsync([]Map{{Name: "v", Host: data, To: true, From: true}},
		func(mem Mem) {
			b, _ := mem.Bytes("v")
			for i := range b {
				b[i] += 10
			}
		})
	if err := comp.Wait(); err != nil {
		t.Fatal(err)
	}
	if data[0] != 11 || data[3] != 14 {
		t.Fatalf("data = %v", data)
	}
	if st := d.Stats(); st.LiveBuffers != 0 {
		t.Fatalf("LiveBuffers = %d", st.LiveBuffers)
	}
}

func TestTargetAsyncErrorSurfaces(t *testing.T) {
	d := newDevice(t)
	// Duplicate buffer name within one region -> alloc error.
	comp := d.TargetAsync([]Map{
		{Name: "x", Host: make([]byte, 4), To: true},
		{Name: "x", Host: make([]byte, 4), To: true},
	}, func(Mem) {})
	if err := comp.Wait(); err == nil {
		t.Fatal("duplicate map accepted")
	}
}
