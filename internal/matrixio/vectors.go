package matrixio

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Binary vector-block format. The engine's snapshots persist the sketch
// index and the self-similarities — one fixed-width float64 vector per id
// slot, with tombstoned slots absent — as raw little-endian bits guarded
// by a CRC: restoring must be bit-identical, and corruption must be
// detected, never silently loaded.
//
// Layout:
//
//	magic   "IOKVEC1\n" (8 bytes)
//	count   uint32 little-endian, number of id slots
//	dim     uint32 little-endian, vector width
//	slots   per slot: flag byte 0 (absent) or 1 (present);
//	        if present, dim float64 little-endian
//	crc     uint32 little-endian, CRC-32 (Castagnoli) over magic|count|dim|slots
//
// Reading consumes exactly the bytes of the block (no read-ahead), so a
// vector block can be embedded mid-stream — the engine snapshot places
// its sketch block between the entry section and the signature block.
const vectorMagic = "IOKVEC1\n"

// maxVectorDim bounds the persisted vector width; sketches are a few
// hundred buckets wide, so 1<<16 leaves generous headroom while keeping a
// corrupted header from forcing huge allocations.
const maxVectorDim = 1 << 16

// WriteVectors writes a vector block. Every non-nil vecs[i] must have
// length dim; nil entries are written as absent slots.
func WriteVectors(w io.Writer, dim int, vecs [][]float64) error {
	if dim <= 0 || dim > maxVectorDim {
		return fmt.Errorf("matrixio: vector width %d outside (0, %d]", dim, maxVectorDim)
	}
	if len(vecs) > MaxSlots {
		return fmt.Errorf("matrixio: %d vector slots exceed limit %d", len(vecs), MaxSlots)
	}
	crc := crc32.New(crcTable)
	cw := io.MultiWriter(w, crc)
	if _, err := io.WriteString(cw, vectorMagic); err != nil {
		return fmt.Errorf("matrixio: %w", err)
	}
	var scratch [8]byte
	binary.LittleEndian.PutUint32(scratch[:4], uint32(len(vecs)))
	binary.LittleEndian.PutUint32(scratch[4:8], uint32(dim))
	if _, err := cw.Write(scratch[:8]); err != nil {
		return fmt.Errorf("matrixio: %w", err)
	}
	// One reusable row buffer keeps the write at one syscall-sized chunk
	// per vector without a bufio layer (whose flush the caller would own).
	row := make([]byte, 1+8*dim)
	for i, vec := range vecs {
		if vec == nil {
			row[0] = 0
			if _, err := cw.Write(row[:1]); err != nil {
				return fmt.Errorf("matrixio: vector %d: %w", i, err)
			}
			continue
		}
		if len(vec) != dim {
			return fmt.Errorf("matrixio: vector %d has width %d, want %d", i, len(vec), dim)
		}
		row[0] = 1
		for j, v := range vec {
			binary.LittleEndian.PutUint64(row[1+8*j:], math.Float64bits(v))
		}
		if _, err := cw.Write(row); err != nil {
			return fmt.Errorf("matrixio: vector %d: %w", i, err)
		}
	}
	binary.LittleEndian.PutUint32(scratch[:4], crc.Sum32())
	if _, err := w.Write(scratch[:4]); err != nil {
		return fmt.Errorf("matrixio: %w", err)
	}
	return nil
}

// ReadVectors reads a block written by WriteVectors. maxCount bounds the
// slot count the untrusted header may claim (callers that know the true
// count from a validated outer structure pass it; <= 0 falls back to the
// triangle default); the width is bounded by maxVectorDim. The returned
// slice has one entry per slot, nil for absent slots, and every float64
// carries exactly the written bits.
func ReadVectors(r io.Reader, maxCount int) (dim int, vecs [][]float64, err error) {
	if maxCount <= 0 {
		maxCount = defaultReadDim
	}
	crc := crc32.New(crcTable)
	var head [16]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return 0, nil, fmt.Errorf("matrixio: vector header: %w", err)
	}
	crc.Write(head[:])
	if string(head[:8]) != vectorMagic {
		return 0, nil, fmt.Errorf("matrixio: bad vector magic %q", head[:8])
	}
	count := int(binary.LittleEndian.Uint32(head[8:12]))
	dim = int(binary.LittleEndian.Uint32(head[12:16]))
	if count > maxCount {
		return 0, nil, fmt.Errorf("matrixio: %d vector slots exceed limit %d", count, maxCount)
	}
	if dim <= 0 || dim > maxVectorDim {
		return 0, nil, fmt.Errorf("matrixio: vector width %d outside (0, %d]", dim, maxVectorDim)
	}
	vecs = make([][]float64, count)
	row := make([]byte, 8*dim)
	for i := range vecs {
		if _, err := io.ReadFull(r, row[:1]); err != nil {
			return 0, nil, fmt.Errorf("matrixio: vector %d flag: %w", i, err)
		}
		crc.Write(row[:1])
		switch row[0] {
		case 0:
			continue
		case 1:
		default:
			return 0, nil, fmt.Errorf("matrixio: vector %d: bad flag %d", i, row[0])
		}
		if _, err := io.ReadFull(r, row); err != nil {
			return 0, nil, fmt.Errorf("matrixio: vector %d: %w", i, err)
		}
		crc.Write(row)
		vec := make([]float64, dim)
		for j := range vec {
			vec[j] = math.Float64frombits(binary.LittleEndian.Uint64(row[8*j:]))
		}
		vecs[i] = vec
	}
	sum := crc.Sum32()
	if _, err := io.ReadFull(r, head[:4]); err != nil {
		return 0, nil, fmt.Errorf("matrixio: vector crc: %w", err)
	}
	if got := binary.LittleEndian.Uint32(head[:4]); got != sum {
		return 0, nil, fmt.Errorf("matrixio: vector crc mismatch: stored %08x, computed %08x", got, sum)
	}
	return dim, vecs, nil
}
