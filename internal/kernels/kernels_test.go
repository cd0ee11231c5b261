package kernels

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestIdeaMulInvProperty(t *testing.T) {
	// Exhaustive: mul(x, inv(x)) == 1 for every 16-bit value (0 encodes
	// 2^16, which is self-inverse mod 2^16+1).
	for x := 0; x < 1<<16; x++ {
		inv := ideaMulInv(uint16(x))
		if got := ideaMul(uint32(x), uint32(inv)); got != 1 {
			t.Fatalf("mul(%d, inv(%d)=%d) = %d, want 1", x, x, inv, got)
		}
	}
}

func TestIdeaAddInv(t *testing.T) {
	for _, x := range []uint16{0, 1, 0x7fff, 0x8000, 0xffff} {
		if got := (uint32(x) + uint32(ideaAddInv(x))) & 0xffff; got != 0 {
			t.Fatalf("addinv(%d): sum mod 2^16 = %d", x, got)
		}
	}
}

func TestIdeaSingleBlockRoundTrip(t *testing.T) {
	f := func(key [8]uint16, block [8]byte) bool {
		enc := ideaEncryptKey(key)
		dec := ideaDecryptKey(enc)
		var ct, pt [8]byte
		ideaCipher(block[:], ct[:], &enc, 0, 1)
		ideaCipher(ct[:], pt[:], &dec, 0, 1)
		return pt == block
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCryptSequential(t *testing.T) {
	c := NewCrypt(TestSize("crypt"))
	c.RunSeq()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCryptParallelMatches(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7} {
		c := NewCrypt(TestSize("crypt"))
		c.RunPar(n)
		if err := c.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestCryptParallelSameCiphertext(t *testing.T) {
	a := NewCrypt(8192)
	a.RunSeq()
	b := NewCrypt(8192)
	b.RunPar(4)
	for i := range a.cipher {
		if a.cipher[i] != b.cipher[i] {
			t.Fatalf("ciphertext differs at %d between seq and par", i)
		}
	}
}

func TestCryptOddSizeRoundedUp(t *testing.T) {
	c := NewCrypt(13)
	if c.n%ideaBlock != 0 {
		t.Fatalf("size %d not block aligned", c.n)
	}
	c.RunSeq()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCryptNotRun(t *testing.T) {
	if err := NewCrypt(64).Validate(); err == nil {
		t.Fatal("Validate passed without running")
	}
}

func TestSeriesSequentialReference(t *testing.T) {
	s := NewSeries(TestSize("series"))
	s.RunSeq()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSeriesParallelBitIdentical(t *testing.T) {
	seq := NewSeries(16)
	seq.RunSeq()
	for _, n := range []int{2, 4, 8} {
		par := NewSeries(16)
		par.RunPar(n)
		if err := par.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		a1, b1 := seq.Coefficients()
		a2, b2 := par.Coefficients()
		for i := range a1 {
			if a1[i] != a2[i] || b1[i] != b2[i] {
				t.Fatalf("n=%d: coefficient %d differs (seq %v/%v, par %v/%v)",
					n, i, a1[i], b1[i], a2[i], b2[i])
			}
		}
	}
}

func TestSeriesMinimumSize(t *testing.T) {
	s := NewSeries(1) // clamped to 4 for validation
	s.RunSeq()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMonteCarloSequential(t *testing.T) {
	m := NewMonteCarlo(TestSize("montecarlo"), 200)
	m.RunSeq()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Mean() <= 0 {
		t.Fatalf("mean = %v", m.Mean())
	}
}

func TestMonteCarloParallelBitIdentical(t *testing.T) {
	seq := NewMonteCarlo(400, 100)
	seq.RunSeq()
	for _, n := range []int{2, 4} {
		par := NewMonteCarlo(400, 100)
		par.RunPar(n)
		if err := par.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if seq.Mean() != par.Mean() {
			t.Fatalf("n=%d: mean %v != sequential %v", n, par.Mean(), seq.Mean())
		}
		for i := range seq.results {
			if seq.results[i] != par.results[i] {
				t.Fatalf("n=%d: path %d differs", n, i)
			}
		}
	}
}

func TestMonteCarloConvergesToExpectation(t *testing.T) {
	m := NewMonteCarlo(20000, 50)
	m.RunPar(4)
	expected := m.s0 * math.Exp(m.mu)
	if rel := math.Abs(m.Mean()-expected) / expected; rel > 0.02 {
		t.Fatalf("mean %v vs analytic %v: relative error %v", m.Mean(), expected, rel)
	}
}

func TestRayTracerSequential(t *testing.T) {
	r := NewRayTracer(TestSize("raytracer"))
	r.RunSeq()
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if r.Checksum() == 0 {
		t.Fatal("blank image")
	}
}

func TestRayTracerParallelMatchesChecksum(t *testing.T) {
	seq := NewRayTracer(32)
	seq.RunSeq()
	for _, n := range []int{2, 3, 4, 8} {
		par := NewRayTracer(32)
		par.RunPar(n)
		if par.Checksum() != seq.Checksum() {
			t.Fatalf("n=%d: checksum %d != sequential %d", n, par.Checksum(), seq.Checksum())
		}
		if err := par.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestRayTracerDeterministic(t *testing.T) {
	a := NewRayTracer(24)
	a.RunSeq()
	b := NewRayTracer(24)
	b.RunSeq()
	if a.Checksum() != b.Checksum() {
		t.Fatal("sequential renders differ between instances")
	}
}

func TestFactoriesRunAndValidate(t *testing.T) {
	for name, f := range Factories() {
		k := f(TestSize(name))
		if k.Name() != name {
			t.Fatalf("factory %q built kernel named %q", name, k.Name())
		}
		k.RunSeq()
		if err := k.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		k2 := f(TestSize(name))
		k2.RunPar(4)
		if err := k2.Validate(); err != nil {
			t.Fatalf("%s parallel: %v", name, err)
		}
	}
}

// TestNamesMatchFactories: Names is the paper's four kernels in its order,
// and Factories builds exactly those.
func TestNamesMatchFactories(t *testing.T) {
	want := []string{"crypt", "series", "montecarlo", "raytracer"}
	names := Names()
	if len(names) != len(want) {
		t.Fatalf("Names = %v, want %v", names, want)
	}
	fs := Factories()
	for i, n := range names {
		if n != want[i] {
			t.Fatalf("Names = %v, want %v", names, want)
		}
		if _, ok := fs[n]; !ok {
			t.Fatalf("Names lists %q but Factories lacks it", n)
		}
	}
	if len(fs) != len(names) {
		t.Fatal("Names/Factories cardinality mismatch")
	}
}

func TestRunParOneEqualsRunSeqAllFamilies(t *testing.T) {
	// Property: a one-thread team is the sequential execution for every
	// kernel family (the master runs everything).
	for _, name := range Names() {
		f := Factories()[name]
		a := f(TestSize(name))
		a.RunSeq()
		b := f(TestSize(name))
		b.RunPar(1)
		if err := a.Validate(); err != nil {
			t.Fatalf("%s seq: %v", name, err)
		}
		if err := b.Validate(); err != nil {
			t.Fatalf("%s par(1): %v", name, err)
		}
	}
}

func TestCalibrateHitsTarget(t *testing.T) {
	target := 20 * time.Millisecond
	size := Calibrate(func(s int) Kernel { return NewCrypt(s) }, 1024, target)
	k := NewCrypt(size)
	t0 := time.Now()
	k.RunSeq()
	d := time.Since(t0)
	if d < target/4 || d > target*4 {
		t.Fatalf("calibrated size %d runs in %v, target %v", size, d, target)
	}
}

// ctorHeavy is a kernel whose cost sits in its constructor: building it
// sleeps size x 100 us, running it does nothing.
type ctorHeavy struct{}

func (ctorHeavy) Name() string    { return "ctor-heavy" }
func (ctorHeavy) RunSeq()         {}
func (ctorHeavy) RunPar(int)      {}
func (ctorHeavy) Validate() error { return nil }

// TestCalibrateTimesConstruction: handlers construct and run, so Calibrate
// must size against both. Timing RunSeq alone sees ~0 here and walks the size
// up without bound (the fake stops sleeping past 20x the target so that
// failure is quick).
func TestCalibrateTimesConstruction(t *testing.T) {
	const unit = 100 * time.Microsecond
	target := 10 * time.Millisecond
	f := func(size int) Kernel {
		if d := time.Duration(size) * unit; d > 0 && d < 20*target {
			time.Sleep(d)
		}
		return ctorHeavy{}
	}
	size := Calibrate(f, 10, target)
	if got := time.Duration(size) * unit; got < target/2 || got > target*2 {
		t.Fatalf("calibrated size %d constructs in %v, target %v", size, got, target)
	}
}

func TestParallelSpeedupShape(t *testing.T) {
	// Not a strict speedup assertion (CI machines vary), but 4 threads must
	// not be dramatically slower than 1 on a compute-bound kernel.
	size := Calibrate(func(s int) Kernel { return NewCrypt(s) }, 1024, 30*time.Millisecond)
	t1 := timeIt(func() { NewCrypt(size).RunPar(1) })
	t4 := timeIt(func() { NewCrypt(size).RunPar(4) })
	if t4 > t1*2 {
		t.Fatalf("4-thread run (%v) much slower than 1-thread (%v)", t4, t1)
	}
}

func timeIt(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

func BenchmarkCryptSeq(b *testing.B) {
	benchKernel(b, func() Kernel { k := NewCrypt(1 << 18); return k }, 0)
}
func BenchmarkCryptPar4(b *testing.B) { benchKernel(b, func() Kernel { return NewCrypt(1 << 18) }, 4) }
func BenchmarkSeriesSeq(b *testing.B) {
	benchKernel(b, func() Kernel { return NewSeries(64) }, 0)
}
func BenchmarkSeriesPar4(b *testing.B) {
	benchKernel(b, func() Kernel { return NewSeries(64) }, 4)
}
func BenchmarkMonteCarloSeq(b *testing.B) {
	benchKernel(b, func() Kernel { return NewMonteCarlo(1000, 200) }, 0)
}
func BenchmarkMonteCarloPar4(b *testing.B) {
	benchKernel(b, func() Kernel { return NewMonteCarlo(1000, 200) }, 4)
}
func BenchmarkRayTracerSeq(b *testing.B) {
	benchKernel(b, func() Kernel { return NewRayTracer(48) }, 0)
}
func BenchmarkRayTracerPar4(b *testing.B) {
	benchKernel(b, func() Kernel { return NewRayTracer(48) }, 4)
}

func benchKernel(b *testing.B, mk func() Kernel, par int) {
	for i := 0; i < b.N; i++ {
		k := mk()
		if par > 0 {
			k.RunPar(par)
		} else {
			k.RunSeq()
		}
	}
}
