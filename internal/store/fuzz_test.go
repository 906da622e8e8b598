package store

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"iokast/internal/token"
)

// walBytes builds a small valid WAL stream for the seed corpus.
func walBytes() []byte {
	x1, _ := token.Parse("[ROOT]:1 open[0]:1 write[1024]:3 [LEVEL_UP]:2")
	x2, _ := token.Parse("[ROOT]:1 read[512]:7")
	var buf bytes.Buffer
	encodeRecord(&buf, record{typ: recInsert, ids: []int{0}, strings: []token.String{x1}})
	encodeRecord(&buf, record{typ: recInsert, ids: []int{1, 2}, strings: []token.String{x2, x1}})
	encodeRecord(&buf, record{typ: recRemove, ids: []int{0}})
	return buf.Bytes()
}

// skippedIDsBytes is one insert record whose ids skip slots, as a shard
// engine of a sharded corpus logs them.
func skippedIDsBytes() []byte {
	x, _ := token.Parse("[ROOT]:1 write[64]:4")
	var buf bytes.Buffer
	encodeRecord(&buf, record{typ: recInsert, ids: []int{3, 9, 10, 200}, strings: []token.String{x, x, x, x}})
	return buf.Bytes()
}

// legacySegment reads the WAL segment of testdata/legacy-crash: add, batch
// and remove records as earlier versions wrote them.
func legacySegment(f *testing.F) []byte {
	data, err := os.ReadFile(filepath.Join("testdata", "legacy-crash", "wal-0000000000000000.log"))
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzWALRecordParsing throws arbitrary bytes at the record reader: it must
// never panic, and whatever prefix it does accept must re-encode to records
// that parse back identically (decode∘encode is the identity on accepted
// records).
func FuzzWALRecordParsing(f *testing.F) {
	good := walBytes()
	f.Add(good)
	for cut := 0; cut < len(good); cut += 7 {
		f.Add(good[:cut])
	}
	mut := append([]byte(nil), good...)
	mut[11] ^= 0xFF
	f.Add(mut)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 1, 2, 3, 4})
	f.Add(legacySegment(f))
	f.Add(skippedIDsBytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var accepted []record
		for {
			rec, err := readRecord(r)
			if err != nil {
				if err != io.EOF && !errors.Is(err, errTornRecord) {
					t.Fatalf("unexpected error class: %v", err)
				}
				break
			}
			if rec.typ != recInsert && rec.typ != recRemove {
				t.Fatalf("reader returned type %d, want an insert or a remove", rec.typ)
			}
			accepted = append(accepted, rec)
			if len(accepted) > 1<<12 {
				break // bound fuzz cost on adversarial many-record inputs
			}
		}
		// Round-trip what was accepted.
		var buf bytes.Buffer
		for _, rec := range accepted {
			encodeRecord(&buf, rec)
		}
		rr := bytes.NewReader(buf.Bytes())
		for i, want := range accepted {
			got, err := readRecord(rr)
			if err != nil {
				t.Fatalf("re-read record %d: %v", i, err)
			}
			if got.typ != want.typ || !slices.Equal(got.ids, want.ids) || len(got.strings) != len(want.strings) {
				t.Fatalf("record %d mutated on round trip: %+v vs %+v", i, got, want)
			}
			for j := range want.strings {
				if !got.strings[j].Equal(want.strings[j]) {
					t.Fatalf("record %d string %d mutated on round trip", i, j)
				}
			}
		}
	})
}

// FuzzWALTailTruncation: for every truncation of a valid WAL, replaying
// through a real store directory must recover a clean prefix — never
// panic, never invent state.
func FuzzWALTailTruncation(f *testing.F) {
	good := walBytes()
	for cut := 0; cut <= len(good); cut += 13 {
		f.Add(good[:cut])
	}
	f.Add(legacySegment(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		eng := kastEngine()
		_, _, err := (&Store{}).replaySegment(eng, segment{start: 0, path: writeTempSegment(t, data)}, 0)
		if err != nil {
			// Only sequencing errors (ids the engine refuses) are allowed to
			// surface; they must be deterministic, not panics. Anything
			// CRC-invalid must have been reported as torn instead.
			return
		}
		// The recovered engine must be internally consistent.
		g, ids := eng.Gram()
		if g.Rows != len(ids) {
			t.Fatalf("replayed engine inconsistent: %d ids, %dx%d gram", len(ids), g.Rows, g.Cols)
		}
	})
}

func writeTempSegment(t *testing.T, data []byte) string {
	t.Helper()
	path := t.TempDir() + "/wal-0000000000000000.log"
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}
