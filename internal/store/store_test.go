package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"iokast/internal/core"
	"iokast/internal/engine"
	"iokast/internal/iogen"
	"iokast/internal/kernel"
	"iokast/internal/token"
)

// corpus builds converted weighted strings from the paper's synthetic
// generator, deterministically.
func corpus(t testing.TB, n int, seed uint64) []token.String {
	t.Helper()
	ds, err := iogen.Build(iogen.PaperOptions(seed))
	if err != nil {
		t.Fatal(err)
	}
	if n > len(ds.Traces) {
		t.Fatalf("dataset has %d traces, want %d", len(ds.Traces), n)
	}
	return core.ConvertAll(ds.Traces[:n], core.Options{})
}

func kastEngine() *engine.Engine {
	return engine.New(engine.Options{Kernel: &core.Kast{CutWeight: 2}})
}

// mustOpen opens a store over dir with automatic snapshots disabled (tests
// trigger snapshots explicitly for determinism).
func mustOpen(t *testing.T, dir string) (*engine.Engine, *Store) {
	t.Helper()
	eng, st, err := Open(dir, kastEngine, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	return eng, st
}

func sameGram(t *testing.T, a, b *engine.Engine, context string) {
	t.Helper()
	ga, idsA := a.Gram()
	gb, idsB := b.Gram()
	if len(idsA) != len(idsB) {
		t.Fatalf("%s: %d ids vs %d", context, len(idsA), len(idsB))
	}
	for i := range idsA {
		if idsA[i] != idsB[i] {
			t.Fatalf("%s: ids %v vs %v", context, idsA, idsB)
		}
	}
	if d := ga.MaxAbsDiff(gb); d != 0 {
		t.Fatalf("%s: Gram differs by %g (must be bit-identical)", context, d)
	}
}

// TestCrashRecoveryWALOnly is the headline crash test: mutations are
// written to the WAL but no snapshot is taken after them; the process
// "dies" (the store is abandoned without Close), and a reopened store must
// serve the exact pre-kill matrix.
func TestCrashRecoveryWALOnly(t *testing.T) {
	dir := t.TempDir()
	xs := corpus(t, 20, 1)

	eng, _ := mustOpen(t, dir)
	for _, x := range xs[:6] {
		eng.Add(x)
	}
	if _, err := eng.AddBatch(xs[6:14]); err != nil {
		t.Fatal(err)
	}
	if err := eng.Remove(3); err != nil {
		t.Fatal(err)
	}
	for _, x := range xs[14:] {
		eng.Add(x)
	}
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	// Kill: no Close, no snapshot since the initial empty checkpoint.

	reng, st2 := mustOpen(t, dir)
	defer st2.Close()
	sameGram(t, eng, reng, "after WAL-only recovery")
	if reng.Seq() != eng.Seq() {
		t.Fatalf("recovered seq %d, want %d", reng.Seq(), eng.Seq())
	}
	if reng.Len() != 19 {
		t.Fatalf("recovered %d live entries, want 19", reng.Len())
	}
	// The tombstone survived: id 3 must be gone.
	if err := reng.Remove(3); err == nil {
		t.Fatal("id 3 still present after recovery; tombstone was not durable")
	}
}

// TestCrashRecoverySnapshotPlusTail: snapshot mid-stream, more mutations
// after it, kill, reopen. Recovery must restore the snapshot and replay
// only the tail.
func TestCrashRecoverySnapshotPlusTail(t *testing.T) {
	dir := t.TempDir()
	xs := corpus(t, 24, 2)

	eng, st := mustOpen(t, dir)
	for _, x := range xs[:10] {
		eng.Add(x)
	}
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().SnapshotSeq; got != 10 {
		t.Fatalf("snapshot seq %d, want 10", got)
	}
	if _, err := eng.AddBatch(xs[10:20]); err != nil {
		t.Fatal(err)
	}
	if err := eng.Remove(12); err != nil {
		t.Fatal(err)
	}
	for _, x := range xs[20:] {
		eng.Add(x)
	}
	// Kill without Close.

	reng, st2 := mustOpen(t, dir)
	defer st2.Close()
	sameGram(t, eng, reng, "after snapshot+tail recovery")
	if reng.Seq() != eng.Seq() {
		t.Fatalf("recovered seq %d, want %d", reng.Seq(), eng.Seq())
	}
}

// TestRecoveredNormalizedGramMatchesBatchRebuild: the acceptance bound —
// after kill+reload, the paper-pipeline similarity matrix must match a
// from-scratch batch rebuild over the same strings within 1e-12.
func TestRecoveredNormalizedGramMatchesBatchRebuild(t *testing.T) {
	dir := t.TempDir()
	xs := corpus(t, 30, 3)

	eng, st := mustOpen(t, dir)
	if _, err := eng.AddBatch(xs[:15]); err != nil {
		t.Fatal(err)
	}
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for _, x := range xs[15:] {
		eng.Add(x)
	}
	// Kill without Close.

	reng, st2 := mustOpen(t, dir)
	defer st2.Close()
	got, ids, _, err := reng.NormalizedGram()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(xs) {
		t.Fatalf("recovered %d ids, want %d", len(ids), len(xs))
	}

	raw := kernel.Gram(&core.Kast{CutWeight: 2}, xs)
	norm, err := core.NormalizeGramPaper(raw, xs, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := kernel.PSDRepair(norm)
	if err != nil {
		t.Fatal(err)
	}
	if d := got.MaxAbsDiff(want); d > 1e-12 {
		t.Fatalf("recovered NormalizedGram differs from batch rebuild by %g > 1e-12", d)
	}
}

// TestGracefulCloseFastRestart: Close checkpoints, so a reopen restores
// purely from the snapshot (empty WAL) and still matches.
func TestGracefulCloseFastRestart(t *testing.T) {
	dir := t.TempDir()
	xs := corpus(t, 12, 4)

	eng, st := mustOpen(t, dir)
	if _, err := eng.AddBatch(xs); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	reng, st2 := mustOpen(t, dir)
	defer st2.Close()
	sameGram(t, eng, reng, "after graceful restart")
	stats := st2.Stats()
	if stats.SnapshotSeq != uint64(len(xs)) || stats.ReplayBacklog != 0 {
		t.Fatalf("stats after graceful restart: %+v", stats)
	}
}

// TestAutomaticSnapshots: with SnapshotEvery set, ingesting past the
// threshold must produce a snapshot without manual calls.
func TestAutomaticSnapshots(t *testing.T) {
	dir := t.TempDir()
	xs := corpus(t, 20, 5)
	eng, st, err := Open(dir, kastEngine, Options{SnapshotEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range xs {
		eng.Add(x)
	}
	if err := st.Close(); err != nil { // waits for background snapshot work
		t.Fatal(err)
	}
	if got := st.Stats().SnapshotSeq; got < 8 {
		t.Fatalf("snapshot seq %d after %d adds with SnapshotEvery=8", got, len(xs))
	}
}

// TestTornTailRecovery truncates the WAL at every byte of its tail record
// and asserts recovery still reaches the last intact mutation.
func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	xs := corpus(t, 8, 6)

	eng, _ := mustOpen(t, dir)
	for _, x := range xs {
		eng.Add(x)
	}
	seg := currentSegment(t, dir)
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}

	// Reference engine over the first 7 adds.
	ref := kastEngine()
	for _, x := range xs[:7] {
		ref.Add(x)
	}

	// Find the last record's start: replay lengths from the frame headers.
	offsets := frameOffsets(t, full)
	if len(offsets) != len(xs)+1 {
		t.Fatalf("%d frame offsets for %d records", len(offsets), len(xs))
	}
	lastStart, end := offsets[len(offsets)-2], offsets[len(offsets)-1]
	if end != len(full) {
		t.Fatalf("frame walk ended at %d of %d bytes", end, len(full))
	}
	for cut := lastStart; cut < end; cut++ {
		cutDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cutDir, filepath.Base(seg)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		reng, st := mustOpen(t, cutDir)
		if !st.Stats().RecoveredTorn && cut != lastStart {
			t.Errorf("cut at %d: torn tail not reported", cut)
		}
		sameGram(t, ref, reng, "after torn-tail recovery")
		st.Close()
	}
}

// TestCorruptMidRecordStopsReplay: flipping a byte in an early record must
// not panic or produce garbage — replay stops at the corruption and
// everything before it is intact.
func TestCorruptMidRecordStopsReplay(t *testing.T) {
	dir := t.TempDir()
	xs := corpus(t, 6, 7)
	eng, _ := mustOpen(t, dir)
	for _, x := range xs {
		eng.Add(x)
	}
	seg := currentSegment(t, dir)
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	offsets := frameOffsets(t, full)
	// Corrupt the third record's payload.
	bad := append([]byte(nil), full...)
	bad[offsets[2]+9] ^= 0xFF

	cutDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(cutDir, filepath.Base(seg)), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	reng, st := mustOpen(t, cutDir)
	defer st.Close()
	if !st.Stats().RecoveredTorn {
		t.Error("corruption not reported as torn recovery")
	}
	ref := kastEngine()
	for _, x := range xs[:2] {
		ref.Add(x)
	}
	sameGram(t, ref, reng, "after mid-record corruption")
}

// TestCorruptSnapshotFallsBackToWAL: an unreadable snapshot must not brick
// the store — recovery falls back to an older snapshot or pure replay.
// Here neither exists, so Open fails, and its error says why each
// candidate was refused: the snapshot by name with the reason Restore
// gave (a CRC mismatch for a flipped bit; an unknown version byte is
// refused before the CRC is reached), then the replay gap.
func TestCorruptSnapshotFallsBackToWAL(t *testing.T) {
	xs := corpus(t, 10, 8)
	for _, c := range []struct {
		name    string
		corrupt func(raw []byte)
		want    string
	}{
		{"bit flip", func(raw []byte) { raw[len(raw)/2] ^= 0x01 }, "snapshot crc mismatch"},
		{"unknown version", func(raw []byte) { raw[len("IOKSNAP1")] = 9 }, "unsupported snapshot version 9"},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			eng, st := mustOpen(t, dir)
			for _, x := range xs {
				eng.Add(x)
			}
			if err := st.Snapshot(); err != nil {
				t.Fatal(err)
			}
			// Corrupt the snapshot; the WAL still holds everything (the segment
			// before rotation covers seq 0..10 and is only removed once obsolete —
			// but rotation already dropped it, so corrupt-snapshot recovery must
			// fail cleanly instead of inventing data).
			snaps, _, err := scanDir(dir)
			if err != nil || len(snaps) == 0 {
				t.Fatalf("scan: %v, %d snaps", err, len(snaps))
			}
			raw, err := os.ReadFile(snaps[0].path)
			if err != nil {
				t.Fatal(err)
			}
			c.corrupt(raw)
			if err := os.WriteFile(snaps[0].path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, err = Open(dir, kastEngine, Options{SnapshotEvery: -1})
			if err == nil {
				t.Fatal("Open succeeded with a corrupt snapshot and no covering WAL")
			}
			for _, want := range []string{"recovery failed", "snapshot " + snaps[0].path + ": ", c.want, "replay gap"} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q does not say %q", err, want)
				}
			}
		})
	}
}

// TestStatsShape sanity-checks the /debug/store payload fields.
func TestStatsShape(t *testing.T) {
	dir := t.TempDir()
	xs := corpus(t, 5, 9)
	eng, st := mustOpen(t, dir)
	defer st.Close()
	for _, x := range xs {
		eng.Add(x)
	}
	stats := st.Stats()
	if stats.Dir != dir || stats.Seq != 5 || stats.AppendedRecords != 5 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.AppendedBytes <= 0 || !stats.Sync {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.ReplayBacklog != 5 {
		t.Fatalf("backlog = %d, want 5", stats.ReplayBacklog)
	}
}

// currentSegment returns the single WAL segment in dir.
func currentSegment(t *testing.T, dir string) string {
	t.Helper()
	_, segs, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("%d wal segments, want 1", len(segs))
	}
	return segs[0].path
}

// frameOffsets walks the frame headers and returns every record's start
// offset plus the final end offset.
func frameOffsets(t *testing.T, data []byte) []int {
	t.Helper()
	var offsets []int
	pos := 0
	for pos < len(data) {
		offsets = append(offsets, pos)
		if pos+8 > len(data) {
			t.Fatalf("torn frame header at %d", pos)
		}
		length := int(uint32(data[pos]) | uint32(data[pos+1])<<8 | uint32(data[pos+2])<<16 | uint32(data[pos+3])<<24)
		pos += 8 + length
	}
	if pos != len(data) {
		t.Fatalf("frame walk overran: %d of %d", pos, len(data))
	}
	offsets = append(offsets, pos)
	return offsets
}

// TestReplayAppliesBatchBoundaries: a snapshot taken exactly at a batch
// boundary replays cleanly; the mixed history (add, batch, remove) lands
// on the same state as a reference engine.
func TestReplayAppliesBatchBoundaries(t *testing.T) {
	dir := t.TempDir()
	xs := corpus(t, 12, 10)
	eng, st := mustOpen(t, dir)
	eng.Add(xs[0])
	if _, err := eng.AddBatch(xs[1:5]); err != nil {
		t.Fatal(err)
	}
	if err := st.Snapshot(); err != nil { // seq 5, exactly after the batch
		t.Fatal(err)
	}
	if _, err := eng.AddBatch(xs[5:9]); err != nil {
		t.Fatal(err)
	}
	if err := eng.Remove(2); err != nil {
		t.Fatal(err)
	}
	eng.Add(xs[9])

	reng, st2 := mustOpen(t, dir)
	defer st2.Close()
	sameGram(t, eng, reng, "after batch-boundary recovery")
}

// TestOpenEmptyDirAndReopen: opening a brand-new directory works and
// leaves it recoverable.
func TestOpenEmptyDirAndReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "data")
	eng, st := mustOpen(t, dir)
	if eng.Len() != 0 || eng.Seq() != 0 {
		t.Fatalf("fresh engine len=%d seq=%d", eng.Len(), eng.Seq())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	eng2, st2 := mustOpen(t, dir)
	defer st2.Close()
	if eng2.Len() != 0 {
		t.Fatalf("reopened empty store has %d entries", eng2.Len())
	}
}

// TestWALRecordRoundTrip checks the record codec directly: inserts with
// consecutive and skipped ids and removes round-trip, and the add and
// batch records of earlier versions decode as the inserts they stand for.
func TestWALRecordRoundTrip(t *testing.T) {
	xs := corpus(t, 3, 11)
	recs := []record{
		{typ: recInsert, ids: []int{0}, strings: xs[:1]},
		{typ: recInsert, ids: []int{1, 2}, strings: xs[1:]},
		{typ: recRemove, ids: []int{1}},
		{typ: recInsert, ids: []int{7}, strings: []token.String{{}}}, // empty string
		{typ: recInsert, ids: []int{9, 12, 400}, strings: xs},
		// Well-formed however large: the engine, not the codec, bounds ids
		// (TestReplayRefusesIDPastLimit).
		{typ: recInsert, ids: []int{1 << 40}, strings: xs[:1]},
	}
	var buf bytes.Buffer
	for _, r := range recs {
		encodeRecord(&buf, r)
	}
	// Legacy payloads, framed by hand: add id 5, then a batch of two at 6.
	legacy := []struct {
		payload []byte
		want    record
	}{
		{append([]byte{recAdd, 5}, stringBytes(xs[0])...),
			record{typ: recInsert, ids: []int{5}, strings: xs[:1]}},
		{append(append([]byte{recBatch, 6, 2}, stringBytes(xs[1])...), stringBytes(xs[2])...),
			record{typ: recInsert, ids: []int{6, 7}, strings: xs[1:]}},
	}
	for _, l := range legacy {
		buf.Write(frame(l.payload))
		recs = append(recs, l.want)
	}
	r := bytes.NewReader(buf.Bytes())
	for i, want := range recs {
		got, err := readRecord(r)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got.typ != want.typ || !slices.Equal(got.ids, want.ids) || len(got.strings) != len(want.strings) {
			t.Fatalf("record %d: got %+v, want %+v", i, got, want)
		}
		for j := range want.strings {
			if !got.strings[j].Equal(want.strings[j]) {
				t.Fatalf("record %d string %d mismatch", i, j)
			}
		}
	}
	if _, err := readRecord(r); err == nil || err.Error() != "EOF" {
		t.Fatalf("expected clean EOF, got %v", err)
	}

	// An insert whose ids do not increase is corrupt.
	bad := append([]byte{recInsert, 2, 4, 0}, stringBytes(xs[0])...)
	bad = append(bad, stringBytes(xs[1])...)
	if _, err := readRecord(bytes.NewReader(frame(bad))); !errors.Is(err, errTornRecord) {
		t.Fatalf("repeated insert id decoded: %v", err)
	}
}

// stringBytes is a string as a record payload carries it.
func stringBytes(x token.String) []byte {
	var buf bytes.Buffer
	appendString(&buf, x)
	return buf.Bytes()
}

// frame wraps a payload in a record frame: length, CRC-32C, payload.
func frame(payload []byte) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, walCRCTable))
	return append(out, payload...)
}

// TestReplayRefusesMissingSegment: the ids of an insert may skip, so only
// the sequence numbers show that a middle WAL segment is gone. Recovery
// must refuse the directory rather than open it with a hole.
func TestReplayRefusesMissingSegment(t *testing.T) {
	dir := t.TempDir()
	xs := corpus(t, 6, 12)
	eng, st := mustOpen(t, dir)
	saved := map[string][]byte{}
	for i := 0; i < 3; i++ {
		for _, x := range xs[2*i : 2*i+2] {
			eng.Add(x)
		}
		_, segs, err := scanDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, seg := range segs {
			data, err := os.ReadFile(seg.path)
			if err != nil {
				t.Fatal(err)
			}
			saved[filepath.Base(seg.path)] = data
		}
		if i < 2 {
			if err := st.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	names := []string{fmt.Sprintf(walPattern, 0), fmt.Sprintf(walPattern, 2), fmt.Sprintf(walPattern, 4)}
	build := func(names ...string) string {
		d := t.TempDir()
		for _, name := range names {
			data, ok := saved[name]
			if !ok {
				t.Fatalf("segment %s was never written", name)
			}
			if err := os.WriteFile(filepath.Join(d, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return d
	}

	// All three segments replay to the whole corpus.
	whole, st2 := mustOpen(t, build(names...))
	sameGram(t, eng, whole, "replay of every segment")
	st2.Close()

	if _, _, err := Open(build(names[0], names[2]), kastEngine, Options{SnapshotEvery: -1}); err == nil {
		t.Fatal("opened a directory missing its middle WAL segment")
	} else if !strings.Contains(err.Error(), "replay gap") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestReplayRefusesIDPastLimit: a CRC is no MAC, so a well-formed insert
// record may carry any id. Replay goes through engine.Insert, which must
// refuse an id past the engine's id bound before it sizes anything by
// it; the directory fails to open instead of allocating up to that id.
func TestReplayRefusesIDPastLimit(t *testing.T) {
	xs := corpus(t, 2, 13)
	for _, ids := range [][]int{{1 << 40}, {0, engine.MaxIDs}} {
		dir := t.TempDir()
		var buf bytes.Buffer
		encodeRecord(&buf, record{typ: recInsert, ids: ids, strings: xs[:len(ids)]})
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf(walPattern, 0)), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(dir, kastEngine, Options{SnapshotEvery: -1}); !errors.Is(err, engine.ErrIDSpaceFull) {
			t.Fatalf("replay of an insert at ids %v: got error %v, want ErrIDSpaceFull", ids, err)
		}
	}
}

// TestLegacyWALFixture opens a copy of testdata/legacy-crash, a crash image
// written by an earlier version that logged add and batch records: its
// initial empty snapshot plus one segment holding an add record (id 0), a
// batch record (ids 1-3) and a remove record (id 2), abandoned without
// Close. The strings are the first four of corpus(t, n, 31). Recovery must
// read those records as the inserts and the remove they stand for; the
// store then appends in the current format and reopens.
func TestLegacyWALFixture(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join("testdata", "legacy-crash")
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	xs := corpus(t, 5, 31)
	check := func(eng *engine.Engine, wantIDs []int, wantNext int, context string) {
		t.Helper()
		got, ids := eng.Strings()
		if !slices.Equal(ids, wantIDs) || eng.NextID() != wantNext {
			t.Fatalf("%s: live ids %v, NextID %d; want %v, %d", context, ids, eng.NextID(), wantIDs, wantNext)
		}
		for i, id := range ids {
			if !got[i].Equal(xs[id]) {
				t.Fatalf("%s: id %d holds the wrong string", context, id)
			}
		}
	}

	eng, _ := mustOpen(t, dir)
	check(eng, []int{0, 1, 3}, 4, "fixture recovery")
	if eng.Seq() != 5 {
		t.Fatalf("fixture recovery: seq %d, want 5", eng.Seq())
	}
	if id := eng.Add(xs[4]); id != 4 {
		t.Fatalf("Add after fixture recovery assigned %d, want 4", id)
	}
	if err := eng.Remove(0); err != nil {
		t.Fatal(err)
	}
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	// Kill again, without Close: the new records replay after the
	// checkpoint Open wrote.
	reng, st2 := mustOpen(t, dir)
	defer st2.Close()
	check(reng, []int{1, 3, 4}, 5, "reopen")
	sameGram(t, eng, reng, "reopen after appending to the fixture")
}

// TestConcurrentIngestWithAutoSnapshots hammers a durable engine from
// several writers while automatic snapshots run in the background — the
// lock-ordering proof for append (engine lock -> store lock) vs snapshot
// (engine read lock, then store lock, never both). The recovered state
// must equal the survivor's.
func TestConcurrentIngestWithAutoSnapshots(t *testing.T) {
	dir := t.TempDir()
	xs := corpus(t, 40, 21)
	eng, st, err := Open(dir, kastEngine, Options{SnapshotEvery: 8})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for _, x := range xs[:16] {
			eng.Add(x)
		}
	}()
	go func() {
		defer wg.Done()
		for lo := 16; lo < 32; lo += 4 {
			if _, err := eng.AddBatch(xs[lo : lo+4]); err != nil {
				t.Errorf("AddBatch: %v", err)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for _, x := range xs[32:] {
			id := eng.Add(x)
			if id%2 == 1 {
				if err := eng.Remove(id); err != nil {
					t.Errorf("Remove(%d): %v", id, err)
				}
			}
		}
	}()
	wg.Wait()
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	reng, st2 := mustOpen(t, dir)
	defer st2.Close()
	sameGram(t, eng, reng, "after concurrent ingest + auto snapshots")
	if reng.Seq() != eng.Seq() {
		t.Fatalf("recovered seq %d, want %d", reng.Seq(), eng.Seq())
	}
}
