package matrixio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"iokast/internal/linalg"
)

// Binary symmetric-triangle format. Gram matrices are symmetric, so
// version-3 engine snapshots persisted only the lower triangle (diagonal
// included): n(n+1)/2 float64s instead of n^2, written little-endian and
// guarded by a CRC so a torn or bit-rotted snapshot is detected instead of
// silently restoring a wrong matrix. The engine still reads it to restore
// such snapshots.
//
// Layout:
//
//	magic   "IOKTRI1\n" (8 bytes)
//	n       uint32 little-endian
//	data    n(n+1)/2 float64 little-endian, rows of the lower triangle
//	        in order: (0,0), (1,0), (1,1), (2,0), ...
//	crc     uint32 little-endian, CRC-32 (Castagnoli) over magic|n|data
const triangleMagic = "IOKTRI1\n"

// MaxSlots is the absolute row ceiling of every block format in this
// package (writer and reader): a triangle's dimension, a vector or
// word-vector block's slot count. The engine bounds its id space by it, so
// that every snapshot it takes stays writable. defaultReadDim is the
// reader's default trust bound for the untrusted header — the n*n
// allocation happens before the trailing CRC can vouch for n, and 1<<14
// caps it at 2 GiB. Callers that know the true dimension from an
// already-validated outer header (the engine snapshot does) pass it to
// ReadSymmetricTriangleMax to read bigger matrices.
const (
	MaxSlots       = 1 << 20
	defaultReadDim = 1 << 14
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// WriteSymmetricTriangle writes the lower triangle of a square matrix in the
// binary format above. The matrix is not checked for symmetry; the upper
// triangle is simply never written, and ReadSymmetricTriangle mirrors the
// lower one.
func WriteSymmetricTriangle(w io.Writer, m *linalg.Matrix) error {
	if m == nil {
		return fmt.Errorf("matrixio: nil matrix")
	}
	if m.Rows != m.Cols {
		return fmt.Errorf("matrixio: triangle of non-square %dx%d matrix", m.Rows, m.Cols)
	}
	if m.Rows > MaxSlots {
		return fmt.Errorf("matrixio: dimension %d exceeds limit %d", m.Rows, MaxSlots)
	}
	crc := crc32.New(crcTable)
	bw := bufio.NewWriter(io.MultiWriter(w, crc))
	if _, err := bw.WriteString(triangleMagic); err != nil {
		return fmt.Errorf("matrixio: %w", err)
	}
	var scratch [8]byte
	binary.LittleEndian.PutUint32(scratch[:4], uint32(m.Rows))
	if _, err := bw.Write(scratch[:4]); err != nil {
		return fmt.Errorf("matrixio: %w", err)
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := 0; j <= i; j++ {
			binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(row[j]))
			if _, err := bw.Write(scratch[:]); err != nil {
				return fmt.Errorf("matrixio: %w", err)
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("matrixio: %w", err)
	}
	binary.LittleEndian.PutUint32(scratch[:4], crc.Sum32())
	if _, err := w.Write(scratch[:4]); err != nil {
		return fmt.Errorf("matrixio: %w", err)
	}
	return nil
}

// ReadSymmetricTriangle reads a matrix written by WriteSymmetricTriangle,
// mirroring the stored lower triangle into a full symmetric matrix. It
// fails on a wrong magic, an implausible dimension, a short read, or a CRC
// mismatch. Reading is buffered and may consume bytes past the trailer, so
// the triangle must be the final section of the stream it is read from.
func ReadSymmetricTriangle(r io.Reader) (*linalg.Matrix, error) {
	return ReadSymmetricTriangleMax(r, defaultReadDim)
}

// ReadSymmetricTriangleMax is ReadSymmetricTriangle with an explicit upper
// bound on the dimension. The header is untrusted until the CRC at the end
// checks out, but the n*n allocation must happen first — so when the true
// dimension is known from a validated outer structure, passing it here
// keeps a corrupted header from forcing an allocation bigger than the data
// it claims to describe.
func ReadSymmetricTriangleMax(r io.Reader, maxDim int) (*linalg.Matrix, error) {
	if maxDim <= 0 {
		maxDim = defaultReadDim
	}
	if maxDim > MaxSlots {
		maxDim = MaxSlots
	}
	// The CRC is fed only the bytes actually consumed as payload; reading
	// through a TeeReader would also checksum whatever the buffered reader
	// reads ahead, including the stored CRC itself.
	crc := crc32.New(crcTable)
	buf := bufio.NewReader(r)
	var head [12]byte
	if _, err := io.ReadFull(buf, head[:]); err != nil {
		return nil, fmt.Errorf("matrixio: triangle header: %w", err)
	}
	crc.Write(head[:])
	if string(head[:8]) != triangleMagic {
		return nil, fmt.Errorf("matrixio: bad triangle magic %q", head[:8])
	}
	n := int(binary.LittleEndian.Uint32(head[8:12]))
	if n > maxDim {
		return nil, fmt.Errorf("matrixio: dimension %d exceeds limit %d", n, maxDim)
	}
	m := linalg.NewMatrix(n, n)
	var scratch [8]byte
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			if _, err := io.ReadFull(buf, scratch[:]); err != nil {
				return nil, fmt.Errorf("matrixio: triangle data at (%d,%d): %w", i, j, err)
			}
			crc.Write(scratch[:])
			v := math.Float64frombits(binary.LittleEndian.Uint64(scratch[:]))
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	sum := crc.Sum32()
	if _, err := io.ReadFull(buf, scratch[:4]); err != nil {
		return nil, fmt.Errorf("matrixio: triangle crc: %w", err)
	}
	if got := binary.LittleEndian.Uint32(scratch[:4]); got != sum {
		return nil, fmt.Errorf("matrixio: triangle crc mismatch: stored %08x, computed %08x", got, sum)
	}
	return m, nil
}
