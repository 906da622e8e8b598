package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"iokast/internal/token"
)

// Record types. A record is one engine mutation in the canonical trace
// representation (token.String text form), so logs are self-contained and
// survive changes to internal caches. The store writes only insert and
// remove records. Add and batch records, which earlier versions wrote for
// consecutive ids, are still read, as the insert they stand for
// (testdata/legacy-crash holds both).
const (
	recAdd    byte = 1 // read only: uvarint id, string
	recRemove byte = 2 // tombstone: uvarint id
	recBatch  byte = 3 // read only: uvarint firstID, uvarint n, n strings
	recInsert byte = 4 // uvarint n, n uvarint id gaps, n strings
)

// record is one decoded WAL entry: an insert (recAdd and recBatch decode
// to one) or a remove.
type record struct {
	typ     byte           // recInsert or recRemove
	ids     []int          // insert: increasing, one per string; remove: the one id
	strings []token.String // insert only
}

// ops returns how many engine mutations the record represents, which is
// what sequence numbers count.
func (r record) ops() uint64 {
	if r.typ == recInsert {
		return uint64(len(r.strings))
	}
	return 1
}

// maxRecordLen bounds a record frame so a corrupted length field cannot
// force a huge allocation before its CRC is checked. 64 MiB comfortably
// holds the largest batch the HTTP service accepts.
const maxRecordLen = 64 << 20

var walCRCTable = crc32.MakeTable(crc32.Castagnoli)

// errTornRecord reports an unreadable record: a torn write at the tail of
// the newest segment (expected after a crash) or corruption. Replay stops
// at the first one; everything before it is intact by CRC.
var errTornRecord = errors.New("store: torn or corrupt wal record")

// appendString writes a length-prefixed canonical string.
func appendString(buf *bytes.Buffer, x token.String) {
	var scratch [binary.MaxVarintLen64]byte
	text := x.Format()
	n := binary.PutUvarint(scratch[:], uint64(len(text)))
	buf.Write(scratch[:n])
	buf.WriteString(text)
}

// encodeRecord frames a record: u32 payload length, u32 CRC-32C of the
// payload, payload. The frame is appended to buf. An insert stores its ids
// as gaps: the first id, then each id minus the one before it.
func encodeRecord(buf *bytes.Buffer, r record) {
	var scratch [binary.MaxVarintLen64]byte
	var payload bytes.Buffer
	putUvarint := func(v int) {
		n := binary.PutUvarint(scratch[:], uint64(v))
		payload.Write(scratch[:n])
	}
	payload.WriteByte(r.typ)
	switch r.typ {
	case recInsert:
		putUvarint(len(r.ids))
		prev := 0
		for _, id := range r.ids {
			putUvarint(id - prev)
			prev = id
		}
		for _, x := range r.strings {
			appendString(&payload, x)
		}
	case recRemove:
		putUvarint(r.ids[0])
	default:
		panic(fmt.Sprintf("store: encode unknown record type %d", r.typ))
	}
	binary.LittleEndian.PutUint32(scratch[:4], uint32(payload.Len()))
	buf.Write(scratch[:4])
	binary.LittleEndian.PutUint32(scratch[:4], crc32.Checksum(payload.Bytes(), walCRCTable))
	buf.Write(scratch[:4])
	buf.Write(payload.Bytes())
}

// readRecord reads one framed record. It returns io.EOF at a clean segment
// end and errTornRecord (possibly wrapped) for anything unparseable —
// short frames, CRC mismatches, or malformed payloads.
func readRecord(r io.Reader) (record, error) {
	var head [8]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		if err == io.EOF {
			return record{}, io.EOF
		}
		return record{}, fmt.Errorf("%w: short header: %v", errTornRecord, err)
	}
	length := binary.LittleEndian.Uint32(head[:4])
	if length == 0 || length > maxRecordLen {
		return record{}, fmt.Errorf("%w: implausible length %d", errTornRecord, length)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return record{}, fmt.Errorf("%w: short payload: %v", errTornRecord, err)
	}
	if want, got := binary.LittleEndian.Uint32(head[4:]), crc32.Checksum(payload, walCRCTable); want != got {
		return record{}, fmt.Errorf("%w: crc stored %08x, computed %08x", errTornRecord, want, got)
	}
	return decodePayload(payload)
}

func decodePayload(payload []byte) (record, error) {
	br := bytes.NewReader(payload)
	bad := func(what string) (record, error) {
		return record{}, fmt.Errorf("%w: %s", errTornRecord, what)
	}
	// uvarint reads a uvarint that must fit an int.
	uvarint := func() (int, bool) {
		v, err := binary.ReadUvarint(br)
		return int(v), err == nil && v <= math.MaxInt
	}
	typ, err := br.ReadByte()
	if err != nil {
		return bad("empty payload")
	}
	// Every counted string takes at least one more payload byte, so the
	// remaining payload bounds a count and the allocations it sizes.
	rec := record{typ: recInsert}
	switch typ {
	case recRemove, recAdd:
		id, ok := uvarint()
		if !ok {
			return bad("bad id")
		}
		rec.ids = []int{id}
		if typ == recRemove {
			rec.typ = recRemove
		}
	case recBatch:
		first, ok := uvarint()
		n, okN := uvarint()
		if !ok || !okN || n == 0 || n > br.Len() || first > math.MaxInt-n {
			return bad("bad batch header")
		}
		rec.ids = make([]int, n)
		for t := range rec.ids {
			rec.ids[t] = first + t
		}
	case recInsert:
		n, ok := uvarint()
		if !ok || n == 0 || n > br.Len() {
			return bad("bad count")
		}
		rec.ids = make([]int, n)
		prev := 0
		for t := range rec.ids {
			gap, ok := uvarint()
			if !ok || (t > 0 && gap == 0) || gap > math.MaxInt-prev {
				return bad("ids not increasing")
			}
			prev += gap
			rec.ids[t] = prev
		}
	default:
		return bad(fmt.Sprintf("unknown type %d", typ))
	}
	if rec.typ == recInsert {
		rec.strings = make([]token.String, len(rec.ids))
		for t := range rec.strings {
			textLen, err := binary.ReadUvarint(br)
			if err != nil || textLen > uint64(br.Len()) {
				return bad("bad string length")
			}
			text := make([]byte, textLen)
			_, _ = io.ReadFull(br, text) // cannot fail: textLen <= br.Len()
			if rec.strings[t], err = token.Parse(string(text)); err != nil {
				return bad(err.Error())
			}
		}
	}
	if br.Len() != 0 {
		return bad(fmt.Sprintf("%d trailing bytes", br.Len()))
	}
	return rec, nil
}
