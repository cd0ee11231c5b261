package kernels

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/omp"
)

// Crypt is the Java Grande Crypt kernel: IDEA encryption and decryption of a
// byte array, validated by round-trip equality. The block cipher is IDEA
// (64-bit blocks, 128-bit key, 8.5 rounds); parallelization distributes
// block ranges across the team, as the Java Grande multithreaded version
// does. An instance can be Reset to a new payload, reusing its buffers.
type Crypt struct {
	n      int // payload size in bytes (rounded up to a block multiple)
	encKey [52]uint16
	decKey [52]uint16
	plain  []byte
	cipher []byte
	out    []byte
	ran    bool
}

const ideaBlock = 8

// NewCrypt builds a Crypt instance over size bytes of deterministic
// pseudo-random plaintext and a fixed random 128-bit key (see Reset).
func NewCrypt(size int) *Crypt {
	c := new(Crypt)
	c.Reset(size)
	return c
}

// Reset makes c what NewCrypt(size) returns: the same key schedules, the same
// plaintext, not yet run. Handlers construct inside the timed region, so
// generation has to be cheap: eight bytes a draw from splitmix64, whose state
// is one word and needs no seeding pass, and only bytes not drawn before.
// Nothing writes plain after Reset, and its capacity is the high-water mark:
// every byte up to it holds the stream. A Reset within that capacity draws
// nothing (cipher and out keep stale bytes, unread until the next run
// overwrites them); a larger one moves the drawn prefix into one new array
// for plain, cipher and out and resumes the stream where the prefix ends.
func (c *Crypt) Reset(size int) {
	if size < ideaBlock {
		size = ideaBlock
	}
	size = (size + ideaBlock - 1) / ideaBlock * ideaBlock
	rng := splitmix64(136506717)
	var userKey [8]uint16
	for i := 0; i < len(userKey); i += 4 {
		v := rng.next()
		userKey[i], userKey[i+1], userKey[i+2], userKey[i+3] = uint16(v), uint16(v>>16), uint16(v>>32), uint16(v>>48)
	}
	c.encKey = ideaEncryptKey(userKey)
	c.decKey = ideaDecryptKey(c.encKey)
	if drawn := cap(c.plain); drawn < size {
		buf := make([]byte, 3*size)
		copy(buf, c.plain[:drawn])
		// splitmix64 is a counter: after k draws its state is seed + k·γ.
		rng += splitmix64(drawn/ideaBlock) * splitmixGamma
		for p := buf[drawn:size]; len(p) >= ideaBlock; p = p[ideaBlock:] {
			binary.LittleEndian.PutUint64(p, rng.next())
		}
		c.plain, c.cipher, c.out = buf[:size:size], buf[size:2*size:2*size], buf[2*size:]
	}
	c.n, c.ran = size, false
	c.plain, c.cipher, c.out = c.plain[:size], c.cipher[:size], c.out[:size]
}

// splitmix64 is Steele, Lea and Flood's 64-bit generator: one add and three
// xor-shift-multiplies per draw, state in a register.
type splitmix64 uint64

const splitmixGamma = 0x9e3779b97f4a7c15

func (s *splitmix64) next() uint64 {
	*s += splitmixGamma
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// Name implements Kernel.
func (c *Crypt) Name() string { return "crypt" }

// RunSeq encrypts then decrypts the whole payload on one goroutine.
func (c *Crypt) RunSeq() {
	ideaCipher(c.plain, c.cipher, &c.encKey, 0, c.n/ideaBlock)
	ideaCipher(c.cipher, c.out, &c.decKey, 0, c.n/ideaBlock)
	c.ran = true
}

// RunPar encrypts then decrypts in one parallel region: each thread of the
// n-thread team takes one static block range through both directions. Blocks
// are independent and the range is the same both ways, so no thread reads
// ciphertext another thread wrote and no barrier separates the two passes.
func (c *Crypt) RunPar(n int) {
	blocks := c.n / ideaBlock
	omp.Parallel(n, func(tc *omp.Team) {
		lo, hi := blockRange(blocks, tc.NumThreads(), tc.ThreadNum())
		ideaCipher(c.plain, c.cipher, &c.encKey, lo, hi)
		ideaCipher(c.cipher, c.out, &c.decKey, lo, hi)
	})
	c.ran = true
}

func blockRange(total, parts, idx int) (lo, hi int) {
	per := total / parts
	rem := total % parts
	lo = idx*per + min(idx, rem)
	size := per
	if idx < rem {
		size++
	}
	return lo, lo + size
}

// Checksum returns the byte sum of the ciphertext of the last run, 0 when the
// instance has not run since NewCrypt or Reset (used by the HTTP encryption
// service as its response payload).
func (c *Crypt) Checksum() int64 {
	if !c.ran {
		return 0
	}
	return byteSum(c.cipher)
}

// byteSum adds b's bytes eight at a time: the even and odd bytes of each word
// go into four 16-bit lanes, which hold the sums of up to 128 words (128 · 2 ·
// 255 < 2¹⁶) before they are folded into the total.
func byteSum(b []byte) int64 {
	const evens = 0x00ff00ff00ff00ff
	var sum int64
	for len(b) >= 8 {
		words := min(len(b)/8, 128)
		var lanes uint64
		for i := 0; i < words; i++ {
			w := binary.LittleEndian.Uint64(b[8*i:])
			lanes += w&evens + w>>8&evens
		}
		sum += int64(lanes&0xffff + lanes>>16&0xffff + lanes>>32&0xffff + lanes>>48)
		b = b[8*words:]
	}
	for _, v := range b {
		sum += int64(v)
	}
	return sum
}

// Validate checks the decrypt(encrypt(plain)) round trip.
func (c *Crypt) Validate() error {
	if !c.ran {
		return fmt.Errorf("crypt: not run")
	}
	if !bytes.Equal(c.plain, c.out) {
		for i := range c.plain {
			if c.plain[i] != c.out[i] {
				return fmt.Errorf("crypt: round trip mismatch at byte %d: %#x != %#x", i, c.plain[i], c.out[i])
			}
		}
	}
	if bytes.Equal(c.plain, c.cipher) {
		return fmt.Errorf("crypt: ciphertext equals plaintext")
	}
	return nil
}

// ideaCipher runs the IDEA cipher over blocks [lo, hi) of src into dst using
// the 52-subkey schedule key. The same function serves encryption and
// decryption; only the key schedule differs.
//
// One block is a serial chain of 34 multiplications mod 2^16+1, so a core
// working on a single block waits on multiply latency; blocks are independent
// (ECB), so two are carried through the rounds together and their chains
// overlap. An odd last block takes the same path with a zero partner.
func ideaCipher(src, dst []byte, key *[52]uint16, lo, hi int) {
	var k [52]uint32
	for i, v := range key {
		k[i] = uint32(v)
	}
	src = src[lo*ideaBlock : hi*ideaBlock]
	dst = dst[lo*ideaBlock : hi*ideaBlock]
	for len(src) >= 2*ideaBlock && len(dst) >= 2*ideaBlock {
		a, b := ideaPair(&k, binary.BigEndian.Uint64(src), binary.BigEndian.Uint64(src[ideaBlock:]))
		binary.BigEndian.PutUint64(dst, a)
		binary.BigEndian.PutUint64(dst[ideaBlock:], b)
		src, dst = src[2*ideaBlock:], dst[2*ideaBlock:]
	}
	if len(src) >= ideaBlock {
		a, _ := ideaPair(&k, binary.BigEndian.Uint64(src), 0)
		binary.BigEndian.PutUint64(dst, a)
	}
}

// ideaPair encrypts the two big-endian blocks a and b under schedule k.
func ideaPair(k *[52]uint32, a, b uint64) (uint64, uint64) {
	a1, a2, a3, a4 := uint32(a>>48), uint32(a>>32)&0xffff, uint32(a>>16)&0xffff, uint32(a)&0xffff
	b1, b2, b3, b4 := uint32(b>>48), uint32(b>>32)&0xffff, uint32(b>>16)&0xffff, uint32(b)&0xffff
	for r := 0; r < 48; r += 6 {
		rk := k[r : r+6 : r+6]
		a1, b1 = ideaMul(a1, rk[0]), ideaMul(b1, rk[0])
		a2, b2 = (a2+rk[1])&0xffff, (b2+rk[1])&0xffff
		a3, b3 = (a3+rk[2])&0xffff, (b3+rk[2])&0xffff
		a4, b4 = ideaMul(a4, rk[3]), ideaMul(b4, rk[3])
		at2, bt2 := ideaMul(a1^a3, rk[4]), ideaMul(b1^b3, rk[4])
		at1, bt1 := ideaMul((at2+(a2^a4))&0xffff, rk[5]), ideaMul((bt2+(b2^b4))&0xffff, rk[5])
		at2, bt2 = (at1+at2)&0xffff, (bt1+bt2)&0xffff
		a1, b1 = a1^at1, b1^bt1
		a4, b4 = a4^at2, b4^bt2
		a2, a3 = a3^at1, a2^at2
		b2, b3 = b3^bt1, b2^bt2
	}
	// Output transform: the last round's x2/x3 swap is undone.
	a1, b1 = ideaMul(a1, k[48]), ideaMul(b1, k[48])
	a3, b3 = (a3+k[49])&0xffff, (b3+k[49])&0xffff
	a2, b2 = (a2+k[50])&0xffff, (b2+k[50])&0xffff
	a4, b4 = ideaMul(a4, k[51]), ideaMul(b4, k[51])
	return uint64(a1)<<48 | uint64(a3)<<32 | uint64(a2)<<16 | uint64(a4),
		uint64(b1)<<48 | uint64(b3)<<32 | uint64(b2)<<16 | uint64(b4)
}

// ideaMul is multiplication modulo 2^16+1 with 0 standing for 2^16. The
// product of two 16-bit operands is zero only when one of them is, and then
// the result is 1 - a - b; otherwise it is lo - hi of the 32-bit product,
// plus one when that borrowed. The borrow is bit 31 of the uint32 difference
// whatever the platform's word size.
func ideaMul(a, b uint32) uint32 {
	p := a * b
	if p == 0 {
		return (0x10001 - a - b) & 0xffff
	}
	r := p&0xffff - p>>16
	r += r >> 31
	return r & 0xffff
}

// ideaMulInv returns the multiplicative inverse modulo 2^16+1 under the same
// zero-encoding (inv(0) = 0, since 2^16 is self-inverse mod 2^16+1).
func ideaMulInv(x uint16) uint16 {
	if x <= 1 {
		return x
	}
	// Extended Euclid for x^-1 mod 0x10001.
	t1 := uint32(0x10001 / uint32(x))
	y := uint32(0x10001) % uint32(x)
	if y == 1 {
		return uint16((1 - t1) & 0xffff)
	}
	t0 := uint32(1)
	q := uint32(x)
	for y != 1 {
		qq := q / y
		q %= y
		t0 += qq * t1
		if q == 1 {
			return uint16(t0)
		}
		qq = y / q
		y %= q
		t1 += qq * t0
	}
	return uint16((1 - t1) & 0xffff)
}

// ideaAddInv returns the additive inverse modulo 2^16.
func ideaAddInv(x uint16) uint16 { return uint16((0x10000 - uint32(x)) & 0xffff) }

// ideaEncryptKey expands the 128-bit user key into the 52 encryption
// subkeys by the standard 25-bit rotation schedule.
func ideaEncryptKey(user [8]uint16) [52]uint16 {
	var z [52]uint16
	copy(z[:8], user[:])
	for i := 8; i < 52; i++ {
		switch i % 8 {
		case 0, 1, 2, 3, 4, 5:
			z[i] = z[i-7]<<9 | z[i-6]>>7
		case 6:
			z[i] = z[i-7]<<9 | z[i-14]>>7
		default: // 7
			z[i] = z[i-15]<<9 | z[i-14]>>7
		}
	}
	return z
}

// ideaDecryptKey derives the decryption schedule from the encryption one:
// multiplicative keys inverted, additive keys negated, with the inner-round
// additive pair swapped for rounds 2-8 (mirroring the x2/x3 swap inside the
// round function).
func ideaDecryptKey(z [52]uint16) [52]uint16 {
	var dk [52]uint16
	// Decryption round 1 <- encryption output transform + round 8 MA keys.
	dk[0] = ideaMulInv(z[48])
	dk[1] = ideaAddInv(z[49])
	dk[2] = ideaAddInv(z[50])
	dk[3] = ideaMulInv(z[51])
	dk[4] = z[46]
	dk[5] = z[47]
	// Decryption rounds 2..8 <- encryption rounds 8..2 (swapped additive
	// pair) + the preceding round's MA keys.
	for r := 1; r < 8; r++ {
		zi := (8 - r) * 6
		di := r * 6
		dk[di] = ideaMulInv(z[zi])
		dk[di+1] = ideaAddInv(z[zi+2])
		dk[di+2] = ideaAddInv(z[zi+1])
		dk[di+3] = ideaMulInv(z[zi+3])
		dk[di+4] = z[zi-2]
		dk[di+5] = z[zi-1]
	}
	// Decryption output transform <- encryption round 1 keys (no swap).
	dk[48] = ideaMulInv(z[0])
	dk[49] = ideaAddInv(z[1])
	dk[50] = ideaAddInv(z[2])
	dk[51] = ideaMulInv(z[3])
	return dk
}
