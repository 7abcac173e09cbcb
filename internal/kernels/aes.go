// Package kernels implements the paper's application kernels from
// scratch: AES-128 encryption (the data-intensive workload, paper
// §IV-A), a Monte Carlo Pi estimator (the CPU-intensive workload,
// §IV-B), and the word-count kernel used by the extra examples.
//
// The AES implementation follows FIPS-197 directly. Its S-box and
// field arithmetic are computed, not transcribed, and the whole cipher
// is cross-validated against crypto/aes in the tests.
package kernels

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// AES-128 parameters (FIPS-197 for Nk=4).
const (
	aesBlockSize = 16
	aesRounds    = 10
	aesKeySize   = 16
)

// BlockSize is the AES block size in bytes.
const BlockSize = aesBlockSize

// KeySize is the AES-128 key size in bytes.
const KeySize = aesKeySize

// ErrKeySize is returned when the key is not 16 bytes (the paper uses
// "a 128 bits key AES encryption algorithm").
var ErrKeySize = errors.New("kernels: AES-128 requires a 16-byte key")

// sbox and invSbox are computed in init from GF(2^8) inverses plus the
// FIPS-197 affine transform, avoiding transcription errors.
var sbox, invSbox [256]byte

// te0..te3 are the standard encryption T-tables: each combines
// SubBytes with one column of MixColumns, turning a round into 16
// table lookups and 16 XORs. They are derived from sbox in init, so
// the slow reference path in encryptBlockRef remains the source of
// truth (the tests cross-check both against crypto/aes).
var te0, te1, te2, te3 [256]uint32

// xtime multiplies by x (i.e. {02}) in GF(2^8) modulo x^8+x^4+x^3+x+1.
func xtime(b byte) byte {
	if b&0x80 != 0 {
		return b<<1 ^ 0x1b
	}
	return b << 1
}

// gmul multiplies two field elements (schoolbook, used for table
// construction and InvMixColumns; not performance critical).
func gmul(a, b byte) byte {
	var p byte
	for i := 0; i < 8; i++ {
		if b&1 != 0 {
			p ^= a
		}
		a = xtime(a)
		b >>= 1
	}
	return p
}

func init() {
	// Multiplicative inverses by brute force (257 x 256 is trivial).
	var inv [256]byte
	for a := 1; a < 256; a++ {
		for b := 1; b < 256; b++ {
			if gmul(byte(a), byte(b)) == 1 {
				inv[a] = byte(b)
				break
			}
		}
	}
	rotl := func(b byte, n uint) byte { return b<<n | b>>(8-n) }
	for i := 0; i < 256; i++ {
		b := inv[i]
		s := b ^ rotl(b, 1) ^ rotl(b, 2) ^ rotl(b, 3) ^ rotl(b, 4) ^ 0x63
		sbox[i] = s
		invSbox[s] = byte(i)
	}
	for i := 0; i < 256; i++ {
		s := sbox[i]
		s2 := xtime(s)
		s3 := s2 ^ s
		w := uint32(s2)<<24 | uint32(s)<<16 | uint32(s)<<8 | uint32(s3)
		te0[i] = w
		te1[i] = w>>8 | w<<24
		te2[i] = w>>16 | w<<16
		te3[i] = w>>24 | w<<8
	}
}

// Cipher is an AES-128 block cipher with a fixed expanded key.
type Cipher struct {
	rk [4 * (aesRounds + 1)]uint32 // round keys as big-endian words
}

// NewCipher expands a 16-byte key per FIPS-197 §5.2.
func NewCipher(key []byte) (*Cipher, error) {
	if len(key) != aesKeySize {
		return nil, fmt.Errorf("%w: got %d bytes", ErrKeySize, len(key))
	}
	c := &Cipher{}
	for i := 0; i < 4; i++ {
		c.rk[i] = binary.BigEndian.Uint32(key[4*i:])
	}
	rcon := uint32(1)
	for i := 4; i < len(c.rk); i++ {
		t := c.rk[i-1]
		if i%4 == 0 {
			// RotWord + SubWord + Rcon.
			t = t<<8 | t>>24
			t = subWord(t) ^ rcon<<24
			rcon = uint32(xtime(byte(rcon)))
		}
		c.rk[i] = c.rk[i-4] ^ t
	}
	return c, nil
}

func subWord(w uint32) uint32 {
	return uint32(sbox[w>>24])<<24 | uint32(sbox[w>>16&0xff])<<16 |
		uint32(sbox[w>>8&0xff])<<8 | uint32(sbox[w&0xff])
}

// addRoundKey XORs four round-key words into the column-major state.
func addRoundKey(s *[16]byte, rk []uint32) {
	for c := 0; c < 4; c++ {
		w := rk[c]
		s[4*c+0] ^= byte(w >> 24)
		s[4*c+1] ^= byte(w >> 16)
		s[4*c+2] ^= byte(w >> 8)
		s[4*c+3] ^= byte(w)
	}
}

func subBytes(s *[16]byte) {
	for i, v := range s {
		s[i] = sbox[v]
	}
}

func invSubBytes(s *[16]byte) {
	for i, v := range s {
		s[i] = invSbox[v]
	}
}

// shiftRows rotates row r left by r (state is column-major: element
// (r,c) lives at s[4c+r]).
func shiftRows(s *[16]byte) {
	s[1], s[5], s[9], s[13] = s[5], s[9], s[13], s[1]
	s[2], s[6], s[10], s[14] = s[10], s[14], s[2], s[6]
	s[3], s[7], s[11], s[15] = s[15], s[3], s[7], s[11]
}

func invShiftRows(s *[16]byte) {
	s[5], s[9], s[13], s[1] = s[1], s[5], s[9], s[13]
	s[10], s[14], s[2], s[6] = s[2], s[6], s[10], s[14]
	s[15], s[3], s[7], s[11] = s[3], s[7], s[11], s[15]
}

func mixColumns(s *[16]byte) {
	for c := 0; c < 4; c++ {
		a0, a1, a2, a3 := s[4*c], s[4*c+1], s[4*c+2], s[4*c+3]
		s[4*c+0] = xtime(a0) ^ xtime(a1) ^ a1 ^ a2 ^ a3
		s[4*c+1] = a0 ^ xtime(a1) ^ xtime(a2) ^ a2 ^ a3
		s[4*c+2] = a0 ^ a1 ^ xtime(a2) ^ xtime(a3) ^ a3
		s[4*c+3] = xtime(a0) ^ a0 ^ a1 ^ a2 ^ xtime(a3)
	}
}

func invMixColumns(s *[16]byte) {
	for c := 0; c < 4; c++ {
		a0, a1, a2, a3 := s[4*c], s[4*c+1], s[4*c+2], s[4*c+3]
		s[4*c+0] = gmul(a0, 0x0e) ^ gmul(a1, 0x0b) ^ gmul(a2, 0x0d) ^ gmul(a3, 0x09)
		s[4*c+1] = gmul(a0, 0x09) ^ gmul(a1, 0x0e) ^ gmul(a2, 0x0b) ^ gmul(a3, 0x0d)
		s[4*c+2] = gmul(a0, 0x0d) ^ gmul(a1, 0x09) ^ gmul(a2, 0x0e) ^ gmul(a3, 0x0b)
		s[4*c+3] = gmul(a0, 0x0b) ^ gmul(a1, 0x0d) ^ gmul(a2, 0x09) ^ gmul(a3, 0x0e)
	}
}

// EncryptBlock encrypts one 16-byte block with the T-table fast path.
// dst and src may overlap.
func (c *Cipher) EncryptBlock(dst, src []byte) {
	if len(src) < aesBlockSize || len(dst) < aesBlockSize {
		panic("kernels: AES block must be 16 bytes")
	}
	s0 := binary.BigEndian.Uint32(src[0:]) ^ c.rk[0]
	s1 := binary.BigEndian.Uint32(src[4:]) ^ c.rk[1]
	s2 := binary.BigEndian.Uint32(src[8:]) ^ c.rk[2]
	s3 := binary.BigEndian.Uint32(src[12:]) ^ c.rk[3]
	var t0, t1, t2, t3 uint32
	for r := 1; r < aesRounds; r++ {
		k := c.rk[4*r : 4*r+4 : 4*r+4]
		t0 = te0[s0>>24] ^ te1[s1>>16&0xff] ^ te2[s2>>8&0xff] ^ te3[s3&0xff] ^ k[0]
		t1 = te0[s1>>24] ^ te1[s2>>16&0xff] ^ te2[s3>>8&0xff] ^ te3[s0&0xff] ^ k[1]
		t2 = te0[s2>>24] ^ te1[s3>>16&0xff] ^ te2[s0>>8&0xff] ^ te3[s1&0xff] ^ k[2]
		t3 = te0[s3>>24] ^ te1[s0>>16&0xff] ^ te2[s1>>8&0xff] ^ te3[s2&0xff] ^ k[3]
		s0, s1, s2, s3 = t0, t1, t2, t3
	}
	// Final round: SubBytes + ShiftRows + AddRoundKey, no MixColumns.
	k := c.rk[4*aesRounds:]
	o0 := uint32(sbox[s0>>24])<<24 | uint32(sbox[s1>>16&0xff])<<16 |
		uint32(sbox[s2>>8&0xff])<<8 | uint32(sbox[s3&0xff])
	o1 := uint32(sbox[s1>>24])<<24 | uint32(sbox[s2>>16&0xff])<<16 |
		uint32(sbox[s3>>8&0xff])<<8 | uint32(sbox[s0&0xff])
	o2 := uint32(sbox[s2>>24])<<24 | uint32(sbox[s3>>16&0xff])<<16 |
		uint32(sbox[s0>>8&0xff])<<8 | uint32(sbox[s1&0xff])
	o3 := uint32(sbox[s3>>24])<<24 | uint32(sbox[s0>>16&0xff])<<16 |
		uint32(sbox[s1>>8&0xff])<<8 | uint32(sbox[s2&0xff])
	binary.BigEndian.PutUint32(dst[0:], o0^k[0])
	binary.BigEndian.PutUint32(dst[4:], o1^k[1])
	binary.BigEndian.PutUint32(dst[8:], o2^k[2])
	binary.BigEndian.PutUint32(dst[12:], o3^k[3])
}

// encryptBlockRef is the straightforward FIPS-197 reference cipher
// (SubBytes/ShiftRows/MixColumns on a byte-array state), kept as the
// readable source of truth the fast path is tested against.
func (c *Cipher) encryptBlockRef(dst, src []byte) {
	var s [16]byte
	copy(s[:], src)
	addRoundKey(&s, c.rk[0:4])
	for r := 1; r < aesRounds; r++ {
		subBytes(&s)
		shiftRows(&s)
		mixColumns(&s)
		addRoundKey(&s, c.rk[4*r:4*r+4])
	}
	subBytes(&s)
	shiftRows(&s)
	addRoundKey(&s, c.rk[4*aesRounds:])
	copy(dst, s[:])
}

// DecryptBlock inverts EncryptBlock.
func (c *Cipher) DecryptBlock(dst, src []byte) {
	if len(src) < aesBlockSize || len(dst) < aesBlockSize {
		panic("kernels: AES block must be 16 bytes")
	}
	var s [16]byte
	copy(s[:], src)
	addRoundKey(&s, c.rk[4*aesRounds:])
	for r := aesRounds - 1; r >= 1; r-- {
		invShiftRows(&s)
		invSubBytes(&s)
		addRoundKey(&s, c.rk[4*r:4*r+4])
		invMixColumns(&s)
	}
	invShiftRows(&s)
	invSubBytes(&s)
	addRoundKey(&s, c.rk[0:4])
	copy(dst, s[:])
}
