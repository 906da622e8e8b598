package engine

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"

	"iokast/internal/token"
)

// Snapshot format: a CRC-checked dump of the corpus as the paper defines
// it, the weighted strings under their ids. Everything else an entry holds
// (its interned view, sketch and k(x, x)) is a function of its string and
// the engine's configuration, so Restore rebuilds it through the commit
// path Insert and WAL replay take, bit for bit. Pairwise kernel values are
// never stored; queries compute them on demand.
//
// Layout:
//
//	magic    "IOKSNAP1" (8 bytes)
//	version  byte (= 5)
//	kernel   uvarint length + kernel name bytes (checked on restore)
//	seq      uint64 little-endian, mutations applied at capture
//	next     uvarint, one past the highest id ever inserted, removed ids
//	         included, so an id removed at the top is never reused
//	live     uvarint count of live ids, then each live id as a uvarint
//	         gap (the first id, then each id minus the one before it),
//	         then each live id's canonical token text (token.Parse) as
//	         uvarint length + bytes: the WAL insert record's payload
//	crc      uint32 little-endian, CRC-32C over everything above
//
// Versions 3 and 4 are restored by their strings alone. After seq their
// header holds a slot count (the next id), the live count, one flag byte
// per id slot (0 absent, 1 live, followed by the live slot's uvarint
// length + canonical text), a sketch flag byte (1: uvarint dim and uint64
// seed follow), an ann flag byte (1: uvarint bands and rows follow), and
// the CRC-32C over all of that. Restore checks that CRC and reads no
// further: the binary blocks after it (sketch vectors, band signatures,
// and the self-similarities or, in version 3, the Gram triangle) are
// rebuilt, not read.
const snapshotMagic = "IOKSNAP1"

const (
	snapshotVersion   = 5
	snapshotVersionV4 = 4
	snapshotVersionV3 = 3
)

var snapCRCTable = crc32.MakeTable(crc32.Castagnoli)

// Snapshot writes the engine's strings to w and returns the sequence
// number it captured (the value Seq() held for the duration of the dump —
// snapshots are consistent cuts, taken under the read lock). Mutations
// wait while the strings are written; callers that care should snapshot
// to an in-memory buffer or a fast local file.
func (e *Engine) Snapshot(w io.Writer) (uint64, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if err := e.snapshotLocked(w); err != nil {
		return 0, fmt.Errorf("engine: snapshot: %w", err)
	}
	return e.seq, nil
}

func (e *Engine) snapshotLocked(w io.Writer) error {
	bw := bufio.NewWriter(w)
	crc := crc32.New(snapCRCTable)
	// bw keeps its first write error and Flush returns it, so the writes
	// below need no checks of their own.
	cw := io.MultiWriter(bw, crc)
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v int) { _, _ = cw.Write(scratch[:binary.PutUvarint(scratch[:], uint64(v))]) }
	putString := func(s string) {
		putUvarint(len(s))
		_, _ = io.WriteString(cw, s)
	}

	_, _ = io.WriteString(cw, snapshotMagic)
	_, _ = cw.Write([]byte{snapshotVersion})
	putString(e.kast.Name())
	_, _ = cw.Write(binary.LittleEndian.AppendUint64(scratch[:0], e.seq))
	putUvarint(e.next)
	putUvarint(e.active)
	prev := 0
	for id, en := range e.entries {
		if en != nil {
			putUvarint(id - prev)
			prev = id
		}
	}
	for _, en := range e.entries {
		if en != nil {
			putString(en.prep.String().Format())
		}
	}
	_, _ = bw.Write(binary.LittleEndian.AppendUint32(scratch[:0], crc.Sum32()))
	return bw.Flush()
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

// maxSnapshotEntry bounds a single entry's canonical text, as the WAL
// bounds a record.
const maxSnapshotEntry = 64 << 20

// Restore loads a snapshot written by Snapshot, or a version 3 or 4 one,
// into an empty engine configured with the same kernel. The snapshot is
// read and checked whole before anything is committed; then its strings
// commit under their ids through the path Insert and WAL replay take,
// which rebuilds every entry's interned view, sketch and self-similarity
// outside the lock and passes nothing to an attached Log. Seq and NextID
// are then the snapshot's.
func (e *Engine) Restore(r io.Reader) error {
	snap, err := readSnapshot(r, e.kast.Name())
	if err != nil {
		return err
	}
	_, err = e.insert(snap.ids, snap.xs, snap)
	return err
}

// snapshot is what a restore commits: the live ids with their strings,
// then the sequence number and next id the engine takes.
type snapshot struct {
	ids  []int
	xs   []token.String
	seq  uint64
	next int
}

// readSnapshot reads and checks a snapshot for an engine running the
// kernel named kernelName. Every allocation grows with the bytes actually
// read, never with a count the snapshot claims.
func readSnapshot(r io.Reader, kernelName string) (*snapshot, error) {
	br := bufio.NewReader(r)
	cr := &crcByteReader{r: br, crc: crc32.New(snapCRCTable)}

	head := make([]byte, len(snapshotMagic)+1)
	if _, err := io.ReadFull(cr, head); err != nil {
		return nil, fmt.Errorf("engine: restore header: %w", err)
	}
	if string(head[:len(snapshotMagic)]) != snapshotMagic {
		return nil, fmt.Errorf("engine: bad snapshot magic %q", head[:len(snapshotMagic)])
	}
	version := head[len(snapshotMagic)]
	if version != snapshotVersion && version != snapshotVersionV4 && version != snapshotVersionV3 {
		return nil, fmt.Errorf("engine: unsupported snapshot version %d", version)
	}
	nameLen, err := binary.ReadUvarint(cr)
	if err != nil || nameLen > 1024 {
		return nil, fmt.Errorf("engine: restore kernel name length: %v", err)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(cr, name); err != nil {
		return nil, fmt.Errorf("engine: restore kernel name: %w", err)
	}
	if string(name) != kernelName {
		return nil, fmt.Errorf("engine: snapshot kernel %q does not match engine kernel %q", name, kernelName)
	}
	var u64 [8]byte
	if _, err := io.ReadFull(cr, u64[:]); err != nil {
		return nil, fmt.Errorf("engine: restore seq: %w", err)
	}
	snap := &snapshot{seq: binary.LittleEndian.Uint64(u64[:])}
	next, err := binary.ReadUvarint(cr)
	if err != nil {
		return nil, fmt.Errorf("engine: restore next id: %w", err)
	}
	live, err := binary.ReadUvarint(cr)
	if err != nil {
		return nil, fmt.Errorf("engine: restore live count: %w", err)
	}
	if live > next || next > MaxIDs {
		return nil, fmt.Errorf("engine: implausible snapshot counts: %d live of next id %d", live, next)
	}
	snap.next = int(next)

	var text bytes.Buffer // reused: grows with the longest text read
	readString := func(id int) error {
		n, err := binary.ReadUvarint(cr)
		if err != nil || n > maxSnapshotEntry {
			return fmt.Errorf("engine: restore entry %d length %d: %v", id, n, err)
		}
		text.Reset()
		if _, err := io.CopyN(&text, cr, int64(n)); err != nil {
			return fmt.Errorf("engine: restore entry %d: %w", id, err)
		}
		x, err := token.Parse(text.String())
		if err != nil {
			return fmt.Errorf("engine: restore entry %d: %w", id, err)
		}
		snap.xs = append(snap.xs, x)
		return nil
	}
	if version == snapshotVersion {
		prev := uint64(0)
		for t := uint64(0); t < live; t++ {
			gap, err := binary.ReadUvarint(cr)
			if err != nil {
				return nil, fmt.Errorf("engine: restore id %d of %d: %w", t, live, err)
			}
			if (t > 0 && gap == 0) || gap >= next-prev {
				return nil, fmt.Errorf("engine: restore ids: gap %d after id %d is not increasing below next id %d", gap, prev, next)
			}
			prev += gap
			snap.ids = append(snap.ids, int(prev))
		}
		for _, id := range snap.ids {
			if err := readString(id); err != nil {
				return nil, err
			}
		}
	} else {
		for id := 0; id < snap.next; id++ {
			flag, err := cr.ReadByte()
			if err != nil {
				return nil, fmt.Errorf("engine: restore entry %d: %w", id, err)
			}
			if flag > 1 {
				return nil, fmt.Errorf("engine: restore entry %d: bad flag %d", id, flag)
			}
			if flag == 1 {
				snap.ids = append(snap.ids, id)
				if err := readString(id); err != nil {
					return nil, err
				}
			}
		}
		if uint64(len(snap.ids)) != live {
			return nil, fmt.Errorf("engine: snapshot claims %d live entries, found %d", live, len(snap.ids))
		}
		// The settings of the blocks after the CRC, read for the CRC only.
		sketchFlag, err := cr.ReadByte()
		if err == nil && sketchFlag == 1 {
			if _, err = binary.ReadUvarint(cr); err == nil { // dim
				_, err = io.ReadFull(cr, u64[:]) // seed
			}
		}
		if err != nil || sketchFlag > 1 {
			return nil, fmt.Errorf("engine: restore sketch flag %d: %v", sketchFlag, err)
		}
		annFlag, err := cr.ReadByte()
		if err == nil && annFlag == 1 {
			if _, err = binary.ReadUvarint(cr); err == nil { // bands
				_, err = binary.ReadUvarint(cr) // rows
			}
		}
		if err != nil || annFlag > 1 {
			return nil, fmt.Errorf("engine: restore ann flag %d: %v", annFlag, err)
		}
	}
	sum := cr.crc.Sum32()
	if _, err := io.ReadFull(br, u64[:4]); err != nil {
		return nil, fmt.Errorf("engine: restore crc: %w", err)
	}
	if got := binary.LittleEndian.Uint32(u64[:4]); got != sum {
		return nil, fmt.Errorf("engine: snapshot crc mismatch: stored %08x, computed %08x", got, sum)
	}
	return snap, nil
}
