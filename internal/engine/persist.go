package engine

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"

	"iokast/internal/matrixio"
	"iokast/internal/token"
)

// Snapshot format: a self-describing, CRC-checked dump of the engine state
// that Restore rebuilds bit-identically. Every cached float — sketch
// vectors and self-similarities — is persisted as raw bits, so a restore
// does no kernel or sketch work unless the sketch configuration changed.
// Pairwise kernel values are never stored; queries compute them on demand.
//
// Layout:
//
//	magic    "IOKSNAP1" (8 bytes)
//	version  byte (= 4; version-3 snapshots are still restored, see selfs)
//	kernel   uvarint length + kernel.Name() bytes (checked on restore)
//	seq      uint64 little-endian, mutations applied at capture
//	numIDs   uvarint, slot count: one past the highest id ever inserted
//	active   uvarint, live (non-tombstoned) ids
//	entries  per id: flag byte 0 (removed or never inserted) or 1 (live);
//	         if live: uvarint length + canonical token text (token.Parse)
//	sketch   flag byte 0 (disabled) or 1 (enabled); if enabled: uvarint
//	         dim + uint64 little-endian seed
//	ann      flag byte, written 0. Snapshots from before the sketch index
//	         lost its LSH bands may carry 1, followed by uvarint bands +
//	         uvarint rows
//	crc      uint32 little-endian, CRC-32C over everything above
//	vectors  matrixio.WriteVectors of the sketch index, one slot per id
//	         (own magic and CRC; only when the sketch flag is 1)
//	sigs     only when the ann flag is 1: a matrixio word-vector block of
//	         band signatures, one slot per id, width = bands (own magic and
//	         CRC). Restore checks it and discards it.
//	selfs    matrixio.WriteVectors of width 1: k(x, x) per live id,
//	         tombstones absent (own magic and CRC). Version 3 has the full
//	         raw Gram matrix here instead, as a matrixio symmetric
//	         triangle; Restore keeps only its diagonal.
const snapshotMagic = "IOKSNAP1"

const (
	snapshotVersion   = 4
	snapshotVersionV3 = 3
)

var snapCRCTable = crc32.MakeTable(crc32.Castagnoli)

// Snapshot writes the engine state to w and returns the sequence number it
// captured (the value Seq() held for the duration of the dump — snapshots
// are consistent cuts, taken under the read lock). It blocks mutations on
// large corpora; callers that care should snapshot to an in-memory buffer
// or a fast local file.
func (e *Engine) Snapshot(w io.Writer) (uint64, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if err := e.snapshotLocked(w); err != nil {
		return 0, err
	}
	return e.seq, nil
}

func (e *Engine) snapshotLocked(w io.Writer) error {
	crc := crc32.New(snapCRCTable)
	bw := bufio.NewWriter(w)
	cw := io.MultiWriter(bw, crc)

	var scratch [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := cw.Write(scratch[:n])
		return err
	}

	if _, err := io.WriteString(cw, snapshotMagic); err != nil {
		return fmt.Errorf("engine: snapshot: %w", err)
	}
	if _, err := cw.Write([]byte{snapshotVersion}); err != nil {
		return fmt.Errorf("engine: snapshot: %w", err)
	}
	name := e.kast.Name()
	if err := writeUvarint(uint64(len(name))); err != nil {
		return fmt.Errorf("engine: snapshot: %w", err)
	}
	if _, err := io.WriteString(cw, name); err != nil {
		return fmt.Errorf("engine: snapshot: %w", err)
	}
	binary.LittleEndian.PutUint64(scratch[:8], e.seq)
	if _, err := cw.Write(scratch[:8]); err != nil {
		return fmt.Errorf("engine: snapshot: %w", err)
	}
	if err := writeUvarint(uint64(len(e.entries))); err != nil {
		return fmt.Errorf("engine: snapshot: %w", err)
	}
	if err := writeUvarint(uint64(e.active)); err != nil {
		return fmt.Errorf("engine: snapshot: %w", err)
	}
	for id, en := range e.entries {
		if en == nil {
			if _, err := cw.Write([]byte{0}); err != nil {
				return fmt.Errorf("engine: snapshot: %w", err)
			}
			continue
		}
		if _, err := cw.Write([]byte{1}); err != nil {
			return fmt.Errorf("engine: snapshot: %w", err)
		}
		text := en.prep.String().Format()
		if err := writeUvarint(uint64(len(text))); err != nil {
			return fmt.Errorf("engine: snapshot: %w", err)
		}
		if _, err := io.WriteString(cw, text); err != nil {
			return fmt.Errorf("engine: snapshot entry %d: %w", id, err)
		}
	}
	if e.sk == nil {
		if _, err := cw.Write([]byte{0}); err != nil {
			return fmt.Errorf("engine: snapshot: %w", err)
		}
	} else {
		if _, err := cw.Write([]byte{1}); err != nil {
			return fmt.Errorf("engine: snapshot: %w", err)
		}
		if err := writeUvarint(uint64(e.sk.Dim())); err != nil {
			return fmt.Errorf("engine: snapshot: %w", err)
		}
		binary.LittleEndian.PutUint64(scratch[:8], e.sk.Seed())
		if _, err := cw.Write(scratch[:8]); err != nil {
			return fmt.Errorf("engine: snapshot: %w", err)
		}
	}
	if _, err := cw.Write([]byte{0}); err != nil { // ann flag
		return fmt.Errorf("engine: snapshot: %w", err)
	}
	binary.LittleEndian.PutUint32(scratch[:4], crc.Sum32())
	if _, err := bw.Write(scratch[:4]); err != nil {
		return fmt.Errorf("engine: snapshot: %w", err)
	}
	// The binary blocks write one row per id slot, absent slots included,
	// so they go through bw as well: one flush at the end, not a syscall
	// per row.
	if e.sk != nil {
		// The index shares vector storage with the entries, so the slot
		// layout is exactly the entry slice: live ids present, tombstones
		// absent.
		vecs := make([][]float64, len(e.entries))
		for id, en := range e.entries {
			if en != nil {
				vecs[id] = en.vec
			}
		}
		if err := matrixio.WriteVectors(bw, e.sk.Dim(), vecs); err != nil {
			return fmt.Errorf("engine: snapshot sketches: %w", err)
		}
	}
	selfs := make([][]float64, len(e.entries))
	for id, en := range e.entries {
		if en != nil {
			selfs[id] = []float64{en.self}
		}
	}
	if err := matrixio.WriteVectors(bw, 1, selfs); err != nil {
		return fmt.Errorf("engine: snapshot self-similarities: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("engine: snapshot: %w", err)
	}
	return nil
}

// crcByteReader feeds every consumed byte into a CRC, so the checksum
// covers exactly the payload regardless of read-ahead.
type crcByteReader struct {
	r   *bufio.Reader
	crc hash.Hash32
}

func (c *crcByteReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		c.crc.Write([]byte{b})
	}
	return b, err
}

func (c *crcByteReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.crc.Write(p[:n])
	return n, err
}

// maxSnapshotEntry bounds a single entry's canonical text so a corrupted
// length cannot force a huge allocation before the CRC check.
const maxSnapshotEntry = 64 << 20

// Restore loads a snapshot written by Snapshot into an empty engine
// configured with the same kernel. The interned views are rebuilt from the
// canonical strings; the self-similarities are restored from their
// persisted bits.
func (e *Engine) Restore(r io.Reader) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.entries) != 0 {
		return fmt.Errorf("engine: Restore into non-empty engine (%d ids)", len(e.entries))
	}

	br := bufio.NewReader(r)
	cr := &crcByteReader{r: br, crc: crc32.New(snapCRCTable)}

	head := make([]byte, len(snapshotMagic)+1)
	if _, err := io.ReadFull(cr, head); err != nil {
		return fmt.Errorf("engine: restore header: %w", err)
	}
	if string(head[:len(snapshotMagic)]) != snapshotMagic {
		return fmt.Errorf("engine: bad snapshot magic %q", head[:len(snapshotMagic)])
	}
	version := head[len(snapshotMagic)]
	if version != snapshotVersion && version != snapshotVersionV3 {
		return fmt.Errorf("engine: unsupported snapshot version %d", version)
	}
	nameLen, err := binary.ReadUvarint(cr)
	if err != nil || nameLen > 1024 {
		return fmt.Errorf("engine: restore kernel name length: %v", err)
	}
	nameBuf := make([]byte, nameLen)
	if _, err := io.ReadFull(cr, nameBuf); err != nil {
		return fmt.Errorf("engine: restore kernel name: %w", err)
	}
	if got, want := string(nameBuf), e.kast.Name(); got != want {
		return fmt.Errorf("engine: snapshot kernel %q does not match engine kernel %q", got, want)
	}
	var seqBuf [8]byte
	if _, err := io.ReadFull(cr, seqBuf[:]); err != nil {
		return fmt.Errorf("engine: restore seq: %w", err)
	}
	seq := binary.LittleEndian.Uint64(seqBuf[:])
	numIDs, err := binary.ReadUvarint(cr)
	if err != nil {
		return fmt.Errorf("engine: restore id count: %w", err)
	}
	active, err := binary.ReadUvarint(cr)
	if err != nil {
		return fmt.Errorf("engine: restore active count: %w", err)
	}
	// Bounded by matrixio's slot limit, as Insert bounds the ids, so a
	// corrupted count is rejected here before the entry slice is allocated.
	if active > numIDs || numIDs > matrixio.MaxSlots {
		return fmt.Errorf("engine: implausible snapshot counts: %d active of %d ids", active, numIDs)
	}

	entries := make([]*entry, numIDs)
	gotActive := 0
	for id := range entries {
		flag, err := cr.ReadByte()
		if err != nil {
			return fmt.Errorf("engine: restore entry %d: %w", id, err)
		}
		switch flag {
		case 0:
			continue
		case 1:
		default:
			return fmt.Errorf("engine: restore entry %d: bad flag %d", id, flag)
		}
		textLen, err := binary.ReadUvarint(cr)
		if err != nil || textLen > maxSnapshotEntry {
			return fmt.Errorf("engine: restore entry %d length: %v", id, err)
		}
		text := make([]byte, textLen)
		if _, err := io.ReadFull(cr, text); err != nil {
			return fmt.Errorf("engine: restore entry %d: %w", id, err)
		}
		x, err := token.Parse(string(text))
		if err != nil {
			return fmt.Errorf("engine: restore entry %d: %w", id, err)
		}
		entries[id] = e.newEntry(x)
		gotActive++
	}
	if gotActive != int(active) {
		return fmt.Errorf("engine: snapshot claims %d live entries, found %d", active, gotActive)
	}
	var (
		snapSketch bool
		snapDim    uint64
		snapSeed   uint64
	)
	flag, err := cr.ReadByte()
	if err != nil {
		return fmt.Errorf("engine: restore sketch flag: %w", err)
	}
	switch flag {
	case 0:
	case 1:
		snapSketch = true
		if snapDim, err = binary.ReadUvarint(cr); err != nil || snapDim == 0 || snapDim > 1<<16 {
			return fmt.Errorf("engine: restore sketch dim: %v", err)
		}
		var seedBuf [8]byte
		if _, err := io.ReadFull(cr, seedBuf[:]); err != nil {
			return fmt.Errorf("engine: restore sketch seed: %w", err)
		}
		snapSeed = binary.LittleEndian.Uint64(seedBuf[:])
	default:
		return fmt.Errorf("engine: restore sketch flag: bad value %d", flag)
	}
	var snapBands uint64 // 0 = no signature block
	if flag, err = cr.ReadByte(); err != nil {
		return fmt.Errorf("engine: restore ann flag: %w", err)
	}
	switch flag {
	case 0:
	case 1:
		if snapBands, err = binary.ReadUvarint(cr); err != nil || snapBands == 0 || snapBands > 1<<12 {
			return fmt.Errorf("engine: restore ann bands: %v", err)
		}
		if rows, err := binary.ReadUvarint(cr); err != nil || rows == 0 || rows > 64 {
			return fmt.Errorf("engine: restore ann rows: %v", err)
		}
	default:
		return fmt.Errorf("engine: restore ann flag: bad value %d", flag)
	}
	sum := cr.crc.Sum32()
	var crcBuf [4]byte
	if _, err := io.ReadFull(br, crcBuf[:]); err != nil {
		return fmt.Errorf("engine: restore crc: %w", err)
	}
	if got := binary.LittleEndian.Uint32(crcBuf[:]); got != sum {
		return fmt.Errorf("engine: snapshot crc mismatch: stored %08x, computed %08x", got, sum)
	}

	var snapVecs [][]float64
	if snapSketch {
		// The block must be consumed to reach the self-similarities even
		// when this engine cannot use it (sketching disabled or
		// reconfigured).
		vecDim, vecs, err := matrixio.ReadVectors(br, int(numIDs))
		if err != nil {
			return fmt.Errorf("engine: restore sketches: %w", err)
		}
		if uint64(vecDim) != snapDim || len(vecs) != int(numIDs) {
			return fmt.Errorf("engine: sketch block %dx%d does not match header %dx%d",
				len(vecs), vecDim, numIDs, snapDim)
		}
		snapVecs = vecs
	}
	if snapBands > 0 {
		// A snapshot written while the index was LSH-banded carries band
		// signatures. Nothing uses them any more, but the block is read
		// whole, its CRC checked, to reach the self-similarities.
		sigWidth, sigs, err := matrixio.ReadWordVectors(br, int(numIDs))
		if err != nil {
			return fmt.Errorf("engine: restore signatures: %w", err)
		}
		if uint64(sigWidth) != snapBands || len(sigs) != int(numIDs) {
			return fmt.Errorf("engine: signature block %dx%d does not match header %dx%d",
				len(sigs), sigWidth, numIDs, snapBands)
		}
	}

	if err := restoreSelfs(br, version, entries); err != nil {
		return err
	}

	if e.sk != nil {
		// Persisted vectors are used only when they were produced by this
		// exact sketch configuration; otherwise (older snapshot, changed
		// --sketch-* flags) the index is recomputed from the canonical
		// strings, which yields the same bits the configured Sketcher
		// would have persisted — sketches are deterministic in (string,
		// dim, seed).
		usePersisted := snapSketch && snapDim == uint64(e.sk.Dim()) && snapSeed == e.sk.Seed()
		for id, en := range entries {
			if en == nil {
				continue
			}
			if usePersisted {
				if snapVecs[id] == nil {
					return fmt.Errorf("engine: snapshot has no sketch for live entry %d", id)
				}
				en.vec = snapVecs[id]
			} else {
				e.sketchEntry(en)
			}
			e.indexEntry(id, en)
		}
	}

	e.entries = entries
	e.active = gotActive
	e.seq = seq
	return nil
}

// restoreSelfs reads the self-similarity section into the live entries:
// one float per live id (version 4), or the diagonal of the version-3
// Gram triangle. len(entries) is trustworthy here — the entries section
// it was read with passed its CRC — so it bounds either allocation.
func restoreSelfs(r io.Reader, version byte, entries []*entry) error {
	if version == snapshotVersionV3 {
		g, err := matrixio.ReadSymmetricTriangleMax(r, len(entries))
		if err != nil {
			return fmt.Errorf("engine: restore matrix: %w", err)
		}
		if g.Rows != len(entries) {
			return fmt.Errorf("engine: snapshot matrix is %dx%d for %d ids", g.Rows, g.Cols, len(entries))
		}
		for id, en := range entries {
			if en != nil {
				en.self = g.At(id, id)
			}
		}
		return nil
	}
	dim, vals, err := matrixio.ReadVectors(r, len(entries))
	if err != nil {
		return fmt.Errorf("engine: restore self-similarities: %w", err)
	}
	if dim != 1 || len(vals) != len(entries) {
		return fmt.Errorf("engine: self-similarity block %dx%d for %d ids", len(vals), dim, len(entries))
	}
	for id, en := range entries {
		if en == nil {
			continue
		}
		if vals[id] == nil {
			return fmt.Errorf("engine: snapshot has no self-similarity for live entry %d", id)
		}
		en.self = vals[id][0]
	}
	return nil
}
