package kernels

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/testutil/raceflag"
)

// refCipher is the one-block-at-a-time IDEA loop ideaCipher replaced, kept
// with its own multiply as the reference the interleaved cipher is checked
// against.
func refCipher(src, dst []byte, key *[52]uint16, lo, hi int) {
	for b := lo; b < hi; b++ {
		o := b * ideaBlock
		x1 := uint32(src[o])<<8 | uint32(src[o+1])
		x2 := uint32(src[o+2])<<8 | uint32(src[o+3])
		x3 := uint32(src[o+4])<<8 | uint32(src[o+5])
		x4 := uint32(src[o+6])<<8 | uint32(src[o+7])
		ik := 0
		for r := 0; r < 8; r++ {
			x1 = refMul(x1, uint32(key[ik]))
			x2 = (x2 + uint32(key[ik+1])) & 0xffff
			x3 = (x3 + uint32(key[ik+2])) & 0xffff
			x4 = refMul(x4, uint32(key[ik+3]))
			t2 := refMul(x1^x3, uint32(key[ik+4]))
			t1 := refMul((t2+(x2^x4))&0xffff, uint32(key[ik+5]))
			t2 = (t1 + t2) & 0xffff
			x1 ^= t1
			x4 ^= t2
			t2 ^= x2
			x2 = x3 ^ t1
			x3 = t2
			ik += 6
		}
		y1 := refMul(x1, uint32(key[48]))
		y2 := (x3 + uint32(key[49])) & 0xffff
		y3 := (x2 + uint32(key[50])) & 0xffff
		y4 := refMul(x4, uint32(key[51]))
		dst[o] = byte(y1 >> 8)
		dst[o+1] = byte(y1)
		dst[o+2] = byte(y2 >> 8)
		dst[o+3] = byte(y2)
		dst[o+4] = byte(y3 >> 8)
		dst[o+5] = byte(y3)
		dst[o+6] = byte(y4 >> 8)
		dst[o+7] = byte(y4)
	}
}

// refMul multiplies modulo 2^16+1 by the definition: 0 stands for 2^16 on
// the way in and on the way out.
func refMul(a, b uint32) uint32 {
	x, y := uint64(a), uint64(b)
	if x == 0 {
		x = 1 << 16
	}
	if y == 0 {
		y = 1 << 16
	}
	return uint32(x*y%0x10001) & 0xffff
}

// TestIdeaKnownAnswer is the published IDEA test vector (Lai, "On the Design
// and Security of Block Ciphers", 1992): nothing else in the suite tells IDEA
// from any other invertible function of the block.
func TestIdeaKnownAnswer(t *testing.T) {
	enc := ideaEncryptKey([8]uint16{1, 2, 3, 4, 5, 6, 7, 8})
	dec := ideaDecryptKey(enc)
	plain := []byte{0x00, 0x00, 0x00, 0x01, 0x00, 0x02, 0x00, 0x03}
	want := []byte{0x11, 0xFB, 0xED, 0x2B, 0x01, 0x98, 0x6D, 0xE5}
	got, back := make([]byte, ideaBlock), make([]byte, ideaBlock)
	ideaCipher(plain, got, &enc, 0, 1)
	if !bytes.Equal(got, want) {
		t.Fatalf("ciphertext % X, want % X", got, want)
	}
	ideaCipher(got, back, &dec, 0, 1)
	if !bytes.Equal(back, plain) {
		t.Fatalf("decrypted % X, want % X", back, plain)
	}
}

// TestIdeaMulAgainstDefinition checks every a against a stride of b plus the
// rows where the zero encoding, the identity and the borrow fold live.
func TestIdeaMulAgainstDefinition(t *testing.T) {
	check := func(a, b uint32) {
		if got, want := ideaMul(a, b), refMul(a, b); got != want {
			t.Fatalf("ideaMul(%#x, %#x) = %#x, want %#x", a, b, got, want)
		}
	}
	for a := uint32(0); a < 1<<16; a++ {
		for b := a % 251; b < 1<<16; b += 251 {
			check(a, b)
		}
		for _, b := range []uint32{0, 1, 0x8000, 0xffff} {
			check(a, b)
			check(b, a)
		}
	}
}

// randomSchedule returns a 52-subkey schedule of random words in which about
// one subkey in eight is zero, so the p == 0 arm of ideaMul runs in every
// round position (an expanded user key almost never has a zero subkey).
func randomSchedule(rng *rand.Rand) *[52]uint16 {
	var k [52]uint16
	for i := range k {
		if rng.Intn(8) != 0 {
			k[i] = uint16(rng.Intn(1 << 16))
		}
	}
	return &k
}

// TestIdeaCipherMatchesReference runs the two-block cipher and the scalar
// reference over every [lo, hi) of 0-9 blocks: even and odd counts, odd
// starts, the empty range, and the bytes outside the range left alone.
func TestIdeaCipherMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 40; iter++ {
		key := randomSchedule(rng)
		for blocks := 0; blocks <= 9; blocks++ {
			src := make([]byte, blocks*ideaBlock)
			rng.Read(src)
			if blocks > 0 && iter%4 == 0 {
				clear(src[:ideaBlock]) // zero data words meet the zero subkeys
			}
			for lo := 0; lo <= blocks; lo++ {
				for hi := lo; hi <= blocks; hi++ {
					got := bytes.Repeat([]byte{0xA5}, len(src))
					want := bytes.Repeat([]byte{0xA5}, len(src))
					ideaCipher(src, got, key, lo, hi)
					refCipher(src, want, key, lo, hi)
					if !bytes.Equal(got, want) {
						t.Fatalf("blocks=%d [%d,%d): got % X, want % X", blocks, lo, hi, got, want)
					}
				}
			}
		}
	}
}

// TestCryptParallelRangesMatchReference covers RunPar's uneven static ranges:
// a block count no team size below divides, against the reference ciphertext.
func TestCryptParallelRangesMatchReference(t *testing.T) {
	const blocks = 61
	for _, n := range []int{1, 2, 3, 4, 7} {
		c := NewCrypt(blocks * ideaBlock)
		c.RunPar(n)
		if err := c.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want := make([]byte, len(c.plain))
		refCipher(c.plain, want, &c.encKey, 0, blocks)
		if !bytes.Equal(c.cipher, want) {
			t.Fatalf("n=%d: ciphertext differs from the reference", n)
		}
	}
}

// TestCryptRunTwice: the benchmark's probe runs one instance repeatedly, so a
// second run must not depend on what the first left in cipher and out.
func TestCryptRunTwice(t *testing.T) {
	c := NewCrypt(1000)
	c.RunSeq()
	first := bytes.Clone(c.cipher)
	c.RunSeq()
	if !bytes.Equal(c.cipher, first) {
		t.Fatal("second RunSeq produced a different ciphertext")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	c.RunPar(3)
	if !bytes.Equal(c.cipher, first) {
		t.Fatal("RunPar after RunSeq produced a different ciphertext")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestNewCryptPlaintext pins what the generator owes its callers: the same
// bytes on every construction (the HTTP oracles compare checksums across
// instances) and bytes that are not degenerate.
func TestNewCryptPlaintext(t *testing.T) {
	a, b := NewCrypt(4096), NewCrypt(4096)
	if !bytes.Equal(a.plain, b.plain) || a.encKey != b.encKey {
		t.Fatal("two constructions differ")
	}
	var seen [256]bool
	for _, v := range a.plain {
		seen[v] = true
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("byte %#x never appears in 4096 bytes of plaintext", v)
		}
	}
}

// TestCryptResetMatchesNewCrypt: one instance Reset through shrinking and
// growing sizes, odd ones included, runs byte for byte like a fresh NewCrypt
// both ways, and a Reset within its capacity allocates nothing (the HTTP
// server's recycled payload depends on both). The sequences grow, shrink and
// grow again inside one buffer, where nothing is drawn, and grow past it,
// where the stream resumes after the bytes already drawn.
func TestCryptResetMatchesNewCrypt(t *testing.T) {
	var c *Crypt
	for _, seq := range []struct {
		sizes  []int
		oneBuf bool // every Reset after the first stays inside its buffer
	}{
		{[]int{256 << 10, 1 << 10, 13, 200000, 8}, true},
		{[]int{256 << 10, 1 << 10, 200000, 8, 256 << 10, 13, 4096, 256 << 10}, true},
		{[]int{8, 13, 1 << 10, 4096, 200000, 256 << 10, 1 << 10, 256 << 10}, false},
		{[]int{13, 8, 4096, 1 << 10, 4096, 200000, 16, 200000}, false},
	} {
		c = new(Crypt)
		var first *byte
		for _, size := range seq.sizes {
			c.Reset(size)
			if first == nil {
				first = &c.plain[0]
			} else if seq.oneBuf && &c.plain[0] != first {
				t.Fatalf("sizes %v: Reset(%d) left the first buffer", seq.sizes, size)
			}
			for _, par := range []bool{false, true} {
				fresh := NewCrypt(size)
				if par {
					c.RunPar(3)
					fresh.RunPar(3)
				} else {
					c.RunSeq()
					fresh.RunSeq()
				}
				if c.n != fresh.n || !bytes.Equal(c.plain, fresh.plain) || !bytes.Equal(c.cipher, fresh.cipher) {
					t.Fatalf("sizes %v, size %d par=%v: reset instance differs from NewCrypt", seq.sizes, size, par)
				}
				if got, want := c.Checksum(), fresh.Checksum(); got != want {
					t.Fatalf("sizes %v, size %d par=%v: checksum %d, want %d", seq.sizes, size, par, got, want)
				}
				if err := c.Validate(); err != nil {
					t.Fatalf("sizes %v, size %d par=%v: %v", seq.sizes, size, par, err)
				}
			}
		}
	}
	if raceflag.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	if got := testing.AllocsPerRun(20, func() { c.Reset(1 << 10); c.Reset(256 << 10) }); got != 0 {
		t.Errorf("Reset within capacity: %v allocs/op, want 0", got)
	}
}

// TestChecksumMatchesByteLoop: the word-wise sum is the byte loop's, on every
// length from 8 to 4096 bytes, on 200 000 and on 256 KiB, at every alignment
// of the slice's start, and on an all-0xff buffer, which fills the lanes. The
// byte loop runs once per buffer, as prefix sums.
func TestChecksumMatchesByteLoop(t *testing.T) {
	prefix := func(b []byte) []int64 {
		sums := make([]int64, len(b)+1)
		for i, v := range b {
			sums[i+1] = sums[i] + int64(v)
		}
		return sums
	}
	sizes := []int{200000, 256 << 10}
	for n := 8; n <= 4096; n++ {
		sizes = append(sizes, n)
	}
	big := NewCrypt(256<<10 + ideaBlock)
	big.RunSeq()
	for _, buf := range [][]byte{big.cipher, bytes.Repeat([]byte{0xff}, 256<<10+ideaBlock)} {
		sums := prefix(buf)
		for _, n := range sizes {
			for off := 0; off < ideaBlock; off++ {
				if got, want := byteSum(buf[off:off+n]), sums[off+n]-sums[off]; got != want {
					t.Fatalf("%d bytes at offset %d: byteSum %d, byte loop %d", n, off, got, want)
				}
			}
		}
	}
	for _, size := range []int{8, 4096, 200000, 256 << 10} {
		c := NewCrypt(size)
		c.RunSeq()
		if got, want := c.Checksum(), prefix(c.cipher)[size]; got != want {
			t.Fatalf("Checksum of %d bytes = %d, want %d", size, got, want)
		}
	}
}

// TestRunParReusesParkedTeam: on a warm instance a two-thread RunPar
// allocates one object, its body closure; the team is a parked one.
func TestRunParReusesParkedTeam(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector allocates on its own account")
	}
	c := NewCrypt(1 << 10)
	c.RunPar(2)
	if got := testing.AllocsPerRun(100, func() { c.RunPar(2) }); got != 1 {
		t.Errorf("RunPar(2) on a warm instance: %v allocs/op, want 1", got)
	}
}

// FuzzIdeaCipher checks the two-block cipher against the reference on an
// arbitrary user key, payload and block range, then that the derived
// decryption schedule takes the range back to the input. The seed corpus is
// under testdata/fuzz/FuzzIdeaCipher.
func FuzzIdeaCipher(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8}, []byte{0, 0, 0, 1, 0, 2, 0, 3}, uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, keyBytes, data []byte, lo, hi uint8) {
		var user [8]uint16
		for i := range user {
			if 2*i+1 < len(keyBytes) {
				user[i] = uint16(keyBytes[2*i])<<8 | uint16(keyBytes[2*i+1])
			}
		}
		blocks := len(data) / ideaBlock
		data = data[:blocks*ideaBlock]
		l, h := int(lo), int(hi)
		if h > blocks {
			h = blocks
		}
		if l > h {
			l = h
		}
		enc := ideaEncryptKey(user)
		dec := ideaDecryptKey(enc)
		got, want, back := make([]byte, len(data)), make([]byte, len(data)), make([]byte, len(data))
		ideaCipher(data, got, &enc, l, h)
		refCipher(data, want, &enc, l, h)
		if !bytes.Equal(got, want) {
			t.Fatalf("key %04x [%d,%d): got % X, want % X", user, l, h, got, want)
		}
		ideaCipher(got, back, &dec, l, h)
		if !bytes.Equal(back[l*ideaBlock:h*ideaBlock], data[l*ideaBlock:h*ideaBlock]) {
			t.Fatalf("key %04x [%d,%d): decrypt(encrypt) is not the input", user, l, h)
		}
	})
}

var benchSink int64

// BenchmarkIdeaCipher is one direction over gui_kernels' 200 000-byte payload.
func BenchmarkIdeaCipher(b *testing.B) {
	c := NewCrypt(200000)
	b.SetBytes(int64(c.n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ideaCipher(c.plain, c.cipher, &c.encKey, 0, c.n/ideaBlock)
	}
	benchSink = c.Checksum()
}

// BenchmarkNewCrypt1K is a 1 KiB construction from nothing; the HTTP server's
// requests Reset a recycled instance instead.
func BenchmarkNewCrypt1K(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink += int64(NewCrypt(1024).n)
	}
}
