// Package crc implements the CRC32 machinery Rendering Elimination builds
// its tile signatures on (paper Sections III-C and III-D):
//
//   - a "raw" CRC32: the pure polynomial remainder with zero initial state
//     and no final XOR. Unlike the pre/post-conditioned IEEE variant in
//     hash/crc32, the raw CRC is linear over GF(2), which is exactly the
//     property Algorithm 1 of the paper needs:
//
//     crc(A ‖ B) = crc(A ≪ |B|) ⊕ crc(B)
//
//   - ShiftZeros, the "left shift by b zero bits" operator (appending zero
//     bytes to a message), implemented three ways: byte-table iteration,
//     GF(2) matrix squaring (O(log n)), and the hardware LUT subunits of
//     Figures 10 and 11 (see parallel.go);
//
//   - Combine, the submessage combination step of Algorithm 1.
//
// The reflected IEEE polynomial 0xEDB88320 is used, so results can be
// cross-checked against hash/crc32 modulo its init/final conditioning (see
// the package tests).
package crc

import "hash/crc32"

// Poly is the reflected CRC-32 (IEEE 802.3) polynomial.
const Poly uint32 = 0xEDB88320

// byteTable[b] is the raw CRC32 of the single byte b, i.e. the state after
// feeding b into a zero-initialized register. It is the classic
// byte-at-a-time table.
var byteTable [256]uint32

// zeroTable[b] maps a CRC state byte to its contribution after shifting the
// state through one zero byte; used by ShiftZeros.
var zeroTable [256]uint32

func init() {
	for i := 0; i < 256; i++ {
		c := uint32(i)
		for k := 0; k < 8; k++ {
			if c&1 != 0 {
				c = (c >> 1) ^ Poly
			} else {
				c >>= 1
			}
		}
		byteTable[i] = c
	}
	for i := 0; i < 256; i++ {
		// Shifting state s through a zero byte is Update(s, [0]):
		// table[s&0xff] ^ s>>8, whose low-byte-dependent part is byteTable.
		zeroTable[i] = byteTable[i]
	}
	initMatrices()
	initSubunitTables()
}

// Update feeds data into the raw CRC state crc and returns the new state.
// Update(0, m) is the raw CRC32 of message m. hash/crc32 conditions its
// state by complementing it on entry and exit, so undoing both yields the
// raw CRC while keeping the standard library's slicing and carry-less
// multiply fast paths.
func Update(crc uint32, data []byte) uint32 {
	return ^crc32.Update(^crc, crc32.IEEETable, data)
}

// UpdateBitwise is the shift-register reference implementation of Update
// (paper [22]); it exists to validate the table and LUT paths.
func UpdateBitwise(crc uint32, data []byte) uint32 {
	for _, b := range data {
		crc ^= uint32(b)
		for k := 0; k < 8; k++ {
			if crc&1 != 0 {
				crc = (crc >> 1) ^ Poly
			} else {
				crc >>= 1
			}
		}
	}
	return crc
}

// Checksum returns the raw CRC32 of data.
func Checksum(data []byte) uint32 { return Update(0, data) }

// ShiftZeros returns the CRC state after appending n zero bytes to a message
// whose raw CRC is crc; this is the "crc(A ≪ b)" operator of Algorithm 1 with
// b = 8n bits. It iterates the zero-byte table, costing O(n).
func ShiftZeros(crc uint32, n int) uint32 {
	for ; n > 0; n-- {
		crc = zeroTable[byte(crc)] ^ (crc >> 8)
	}
	return crc
}

// Combine implements one loop iteration of Algorithm 1: given the CRC of a
// prefix A and the CRC of a submessage B of lenB bytes, it returns the CRC of
// the concatenation A ‖ B.
func Combine(crcA, crcB uint32, lenB int) uint32 {
	return ShiftZerosFast(crcA, lenB) ^ crcB
}

// --- GF(2) matrix fast path -------------------------------------------------

// gf2Matrix is a 32x32 bit matrix over GF(2); row i is the image of bit i.
type gf2Matrix [32]uint32

func (m *gf2Matrix) mulVec(v uint32) uint32 {
	var sum uint32
	for i := 0; v != 0; i, v = i+1, v>>1 {
		if v&1 != 0 {
			sum ^= m[i]
		}
	}
	return sum
}

func (m *gf2Matrix) mulMat(n *gf2Matrix) gf2Matrix {
	var out gf2Matrix
	for i := 0; i < 32; i++ {
		out[i] = m.mulVec(n[i])
	}
	return out
}

// shiftPow[k] advances a CRC state across 2^k zero bytes.
var shiftPow [32]gf2Matrix

func initMatrices() {
	// shiftPow[0]: one zero byte. Column/row i is ShiftZeros(1<<i, 1).
	var one gf2Matrix
	for i := 0; i < 32; i++ {
		one[i] = ShiftZeros(1<<uint(i), 1)
	}
	shiftPow[0] = one
	for k := 1; k < 32; k++ {
		shiftPow[k] = shiftPow[k-1].mulMat(&shiftPow[k-1])
	}
}

// ShiftZerosFast is ShiftZeros computed in O(log n) via matrix powers. It is
// the software fast path; the hardware model in parallel.go uses the paper's
// iterative LUT design instead.
func ShiftZerosFast(crc uint32, n int) uint32 {
	if n < 0 {
		panic("crc: negative zero-shift length")
	}
	for k := 0; n != 0 && k < 32; k, n = k+1, n>>1 {
		if n&1 != 0 {
			crc = shiftPow[k].mulVec(crc)
		}
	}
	return crc
}
