package matrixio

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Binary word-vector-block format: the uint64 sibling of the float64
// vector block. Engine snapshots written while the sketch index was
// LSH-banded carry their band signatures in one — one fixed-width
// []uint64 per id slot, tombstoned slots absent — and the engine's
// restore reads it whole and discards it. Nothing writes one any more;
// WriteWordVectors stays as the reader's test oracle. Same framing
// discipline as the vector block: little-endian bits guarded by a CRC-32
// (Castagnoli), exact byte consumption so the block can sit mid-stream.
//
// Layout:
//
//	magic   "IOKSIG1\n" (8 bytes)
//	count   uint32 little-endian, number of id slots
//	width   uint32 little-endian, words per signature
//	slots   per slot: flag byte 0 (absent) or 1 (present);
//	        if present, width uint64 little-endian
//	crc     uint32 little-endian, CRC-32 (Castagnoli) over magic|count|width|slots
const wordMagic = "IOKSIG1\n"

// maxWordWidth bounds the persisted signature width; the banded index
// capped bands at a few hundred, so 1<<12 leaves headroom while keeping a
// corrupted header from forcing huge allocations.
const maxWordWidth = 1 << 12

// WriteWordVectors writes a word-vector block. Every non-nil rows[i] must
// have length width; nil entries are written as absent slots.
func WriteWordVectors(w io.Writer, width int, rows [][]uint64) error {
	if width <= 0 || width > maxWordWidth {
		return fmt.Errorf("matrixio: word-vector width %d outside (0, %d]", width, maxWordWidth)
	}
	if len(rows) > MaxSlots {
		return fmt.Errorf("matrixio: %d word-vector slots exceed limit %d", len(rows), MaxSlots)
	}
	crc := crc32.New(crcTable)
	cw := io.MultiWriter(w, crc)
	if _, err := io.WriteString(cw, wordMagic); err != nil {
		return fmt.Errorf("matrixio: %w", err)
	}
	var scratch [8]byte
	binary.LittleEndian.PutUint32(scratch[:4], uint32(len(rows)))
	binary.LittleEndian.PutUint32(scratch[4:8], uint32(width))
	if _, err := cw.Write(scratch[:8]); err != nil {
		return fmt.Errorf("matrixio: %w", err)
	}
	buf := make([]byte, 1+8*width)
	for i, row := range rows {
		if row == nil {
			buf[0] = 0
			if _, err := cw.Write(buf[:1]); err != nil {
				return fmt.Errorf("matrixio: word vector %d: %w", i, err)
			}
			continue
		}
		if len(row) != width {
			return fmt.Errorf("matrixio: word vector %d has width %d, want %d", i, len(row), width)
		}
		buf[0] = 1
		for j, v := range row {
			binary.LittleEndian.PutUint64(buf[1+8*j:], v)
		}
		if _, err := cw.Write(buf); err != nil {
			return fmt.Errorf("matrixio: word vector %d: %w", i, err)
		}
	}
	binary.LittleEndian.PutUint32(scratch[:4], crc.Sum32())
	if _, err := w.Write(scratch[:4]); err != nil {
		return fmt.Errorf("matrixio: %w", err)
	}
	return nil
}

// ReadWordVectors reads a block written by WriteWordVectors. maxCount
// bounds the slot count the untrusted header may claim (<= 0 falls back
// to the triangle default). The returned slice has one entry per slot,
// nil for absent slots.
func ReadWordVectors(r io.Reader, maxCount int) (width int, rows [][]uint64, err error) {
	if maxCount <= 0 {
		maxCount = defaultReadDim
	}
	crc := crc32.New(crcTable)
	var head [16]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return 0, nil, fmt.Errorf("matrixio: word-vector header: %w", err)
	}
	crc.Write(head[:])
	if string(head[:8]) != wordMagic {
		return 0, nil, fmt.Errorf("matrixio: bad word-vector magic %q", head[:8])
	}
	count := int(binary.LittleEndian.Uint32(head[8:12]))
	width = int(binary.LittleEndian.Uint32(head[12:16]))
	if count > maxCount {
		return 0, nil, fmt.Errorf("matrixio: %d word-vector slots exceed limit %d", count, maxCount)
	}
	if width <= 0 || width > maxWordWidth {
		return 0, nil, fmt.Errorf("matrixio: word-vector width %d outside (0, %d]", width, maxWordWidth)
	}
	rows = make([][]uint64, count)
	buf := make([]byte, 8*width)
	for i := range rows {
		if _, err := io.ReadFull(r, buf[:1]); err != nil {
			return 0, nil, fmt.Errorf("matrixio: word vector %d flag: %w", i, err)
		}
		crc.Write(buf[:1])
		switch buf[0] {
		case 0:
			continue
		case 1:
		default:
			return 0, nil, fmt.Errorf("matrixio: word vector %d: bad flag %d", i, buf[0])
		}
		if _, err := io.ReadFull(r, buf); err != nil {
			return 0, nil, fmt.Errorf("matrixio: word vector %d: %w", i, err)
		}
		crc.Write(buf)
		row := make([]uint64, width)
		for j := range row {
			row[j] = binary.LittleEndian.Uint64(buf[8*j:])
		}
		rows[i] = row
	}
	sum := crc.Sum32()
	if _, err := io.ReadFull(r, head[:4]); err != nil {
		return 0, nil, fmt.Errorf("matrixio: word-vector crc: %w", err)
	}
	if got := binary.LittleEndian.Uint32(head[:4]); got != sum {
		return 0, nil, fmt.Errorf("matrixio: word-vector crc mismatch: stored %08x, computed %08x", got, sum)
	}
	return width, rows, nil
}
