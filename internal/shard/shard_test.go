package shard

import (
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

	"iokast/internal/cli"
	"iokast/internal/core"
	"iokast/internal/engine"
	"iokast/internal/iogen"
	"iokast/internal/kernel"
	"iokast/internal/sketch"
	"iokast/internal/store"
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

func kastOptions() Options {
	return Options{
		Shards: 3,
		Seed:   42,
		Engine: engine.Options{Kernel: &core.Kast{CutWeight: 2}},
		Store:  store.Options{SnapshotEvery: -1},
	}
}

// TestRouteGolden pins the routing hash. These values are part of every
// sharded data directory's on-disk contract: if this test fails, the hash
// changed, and every existing directory would recover with ids assigned to
// the wrong shards. Fix the hash, not the test.
func TestRouteGolden(t *testing.T) {
	cases := []struct {
		seed uint64
		n    int
		want []int
	}{
		{seed: 0x0, n: 2, want: []int{1, 1, 1, 1, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 0, 0}},
		{seed: 0x0, n: 4, want: []int{3, 3, 1, 3, 1, 1, 2, 3, 2, 0, 3, 1, 3, 2, 2, 0}},
		{seed: 0x0, n: 7, want: []int{5, 4, 3, 3, 5, 3, 2, 3, 4, 0, 4, 4, 1, 5, 6, 4}},
		{seed: 0x1, n: 4, want: []int{0, 1, 2, 2, 2, 3, 3, 2, 2, 3, 3, 3, 2, 1, 2, 1}},
		{seed: 0xdeadbeef, n: 4, want: []int{1, 1, 0, 3, 0, 2, 1, 2, 0, 0, 2, 1, 2, 0, 1, 2}},
		{seed: 0x0, n: 16, want: []int{15, 7, 9, 3, 13, 9, 14, 15, 6, 8, 3, 5, 11, 6, 14, 4}},
	}
	for _, c := range cases {
		for id, want := range c.want {
			if got := Route(id, c.seed, c.n); got != want {
				t.Errorf("Route(%d, %#x, %d) = %d, want %d (the routing hash must never change)", id, c.seed, c.n, got, want)
			}
		}
	}
}

func TestRouteRangeAndCoverage(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7, 16} {
		for _, seed := range []uint64{0, 1, 0xdeadbeef} {
			hit := make([]bool, n)
			for id := 0; id < 256*n; id++ {
				sh := Route(id, seed, n)
				if sh < 0 || sh >= n {
					t.Fatalf("Route(%d, %#x, %d) = %d out of range", id, seed, n, sh)
				}
				hit[sh] = true
			}
			for sh, ok := range hit {
				if !ok {
					t.Errorf("n=%d seed=%#x: shard %d never routed to in %d ids", n, seed, sh, 256*n)
				}
			}
		}
	}
}

func TestManifestRoundTrip(t *testing.T) {
	for _, m := range []manifest{
		{shards: 1, seed: 0, kernel: "kast"},
		{shards: 7, seed: 0xfeedface, kernel: "kast(cut=2)", sketch: true, sketchDim: 256, sketchSeed: 99},
	} {
		data := m.encode()
		got, err := decodeManifest(data)
		if err != nil {
			t.Fatalf("decode(%+v): %v", m, err)
		}
		if got != m {
			t.Fatalf("round trip: got %+v, want %+v", got, m)
		}
		// Every single-bit corruption must be caught by the CRC (or the
		// structural checks behind it).
		for i := range data {
			bad := append([]byte(nil), data...)
			bad[i] ^= 0x40
			if _, err := decodeManifest(bad); err == nil {
				t.Fatalf("corrupted byte %d accepted", i)
			}
		}
		if _, err := decodeManifest(data[:len(data)-2]); err == nil {
			t.Fatal("truncated manifest accepted")
		}
	}
}

func TestOpenRefusesMismatchedManifest(t *testing.T) {
	dir := t.TempDir()
	opt := kastOptions()
	s, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		mutate func(o *Options)
		want   string
	}{
		{"shards", func(o *Options) { o.Shards = 4 }, "holds 3 shards"},
		{"seed", func(o *Options) { o.Seed = 7 }, "routed with seed"},
		{"kernel", func(o *Options) { o.Engine.Kernel = &core.Kast{CutWeight: 4} }, "kernel"},
		{"sketch", func(o *Options) { o.Engine.SketchDim = -1 }, "sketch config mismatch"},
	}
	for _, c := range cases {
		bad := kastOptions()
		c.mutate(&bad)
		if _, err := Open(dir, bad); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s mismatch: got error %v, want containing %q", c.name, err, c.want)
		}
	}

	// The matching configuration still opens.
	s, err = Open(dir, opt)
	if err != nil {
		t.Fatalf("reopen with matching options: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A corrupt manifest is refused, not guessed around.
	path := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, opt); err == nil {
		t.Fatal("corrupt manifest accepted")
	}
}

// TestRefusesNonKastKernel: the corpus runs Kast only. New and Open refuse
// any other kernel with an error that names it, at every shard count and
// before anything is written to the directory.
func TestRefusesNonKastKernel(t *testing.T) {
	for _, k := range []kernel.Kernel{
		&kernel.Blended{P: 5},
		&kernel.Spectrum{K: 3, Mode: kernel.Count},
		&kernel.BagOfTokens{},
		kernel.Normalized{K: &core.Kast{CutWeight: 2}},
	} {
		for _, shards := range []int{1, 3} {
			opt := Options{Shards: shards, Engine: engine.Options{Kernel: k}}
			if _, err := New(opt); err == nil || !strings.Contains(err.Error(), k.Name()) {
				t.Errorf("New(%s, %d shards) = %v, want an error naming the kernel", k.Name(), shards, err)
			}
			dir := filepath.Join(t.TempDir(), "corpus")
			if _, err := Open(dir, opt); err == nil || !strings.Contains(err.Error(), k.Name()) {
				t.Errorf("Open(%s, %d shards) = %v, want an error naming the kernel", k.Name(), shards, err)
			}
			if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("Open(%s) created the directory: %v", k.Name(), err)
			}
		}
	}
}

// TestOpenRefusesVersion1Manifest: version-1 shard stores hold shard-local
// ids, which would read as colliding corpus-wide ids, so a directory whose
// MANIFEST says version 1 must be refused, with the way out in the message,
// even though its shard subdirectories are intact.
func TestOpenRefusesVersion1Manifest(t *testing.T) {
	dir := t.TempDir()
	opt := kastOptions()
	s, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddBatch(corpus(t, 6, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payload := data[:len(data)-4]
	payload[len(manifestMagic)] = 1
	v1 := binary.LittleEndian.AppendUint32(payload, crc32.Checksum(payload, manifestCRCTable))
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, opt)
	if err == nil || !strings.Contains(err.Error(), "manifest version 1") || !strings.Contains(err.Error(), "ingest the corpus again") {
		t.Fatalf("version-1 directory: got error %v", err)
	}
}

// TestRefusesForeignLayouts: a single-engine data dir must not be silently
// adopted by shard.Open (its corpus would vanish behind a fresh MANIFEST
// and empty shard subdirs), and a sharded dir must not be opened as a
// single-engine store (its WALs live in subdirectories the store never
// reads). Both directions refuse with a pointer to the right opener.
func TestRefusesForeignLayouts(t *testing.T) {
	single := t.TempDir()
	eng, st, err := store.Open(single, func() *engine.Engine {
		return engine.New(engine.Options{Kernel: &core.Kast{CutWeight: 2}})
	}, store.Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	eng.Add(corpus(t, 1, 1)[0])
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(single, kastOptions()); err == nil || !strings.Contains(err.Error(), "single-engine") {
		t.Fatalf("shard.Open adopted a single-engine dir: %v", err)
	}

	sharded := t.TempDir()
	s, err := Open(sharded, kastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.Open(sharded, func() *engine.Engine {
		return engine.New(engine.Options{Kernel: &core.Kast{CutWeight: 2}})
	}, store.Options{}); err == nil || !strings.Contains(err.Error(), "sharded corpus") {
		t.Fatalf("store.Open adopted a sharded dir: %v", err)
	}
}

// TestLegacyDirMigration: a single-engine data dir (WAL and snapshots at
// its root, no MANIFEST) is refused where it is, with the exact move for
// one shard and a re-ingest for more. After that move, a one-shard corpus
// recovers what store.Open recovers from the dir as it was: shard 0 holds
// every id, under the same corpus-wide ids.
func TestLegacyDirMigration(t *testing.T) {
	src := filepath.Join("..", "store", "testdata", "legacy-crash")
	copyFixture := func() string {
		dir := t.TempDir()
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
		return dir
	}
	eopt := engine.Options{Kernel: &core.Kast{CutWeight: 2}}
	sopt := store.Options{SnapshotEvery: -1}
	eng, st, err := store.Open(copyFixture(), func() *engine.Engine { return engine.New(eopt) }, sopt)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	wantStrings, wantIDs := eng.Strings()
	if !slices.Equal(wantIDs, []int{0, 1, 3}) || eng.NextID() != 4 {
		t.Fatalf("fixture holds ids %v, NextID %d; want [0 1 3], 4", wantIDs, eng.NextID())
	}

	dir := copyFixture()
	opt := Options{Shards: 1, Engine: eopt, Store: sopt}
	move := fmt.Sprintf("mkdir %[1]s/shard-000 && mv %[1]s/wal-* %[1]s/snap-* %[1]s/shard-000/", dir)
	if _, err := Open(dir, opt); err == nil || !strings.Contains(err.Error(), "single-engine") || !strings.Contains(err.Error(), move) {
		t.Fatalf("one shard over a legacy dir: got error %v, want one naming %q", err, move)
	}
	more := opt
	more.Shards = 3
	if _, err := Open(dir, more); err == nil || !strings.Contains(err.Error(), "single-engine") || !strings.Contains(err.Error(), "ingest the corpus again") {
		t.Fatalf("three shards over a legacy dir: got error %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); !os.IsNotExist(err) {
		t.Fatalf("a refused open wrote a MANIFEST: %v", err)
	}

	sub := filepath.Join(dir, ShardDir(0))
	if err := os.Mkdir(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, pattern := range []string{"wal-*", "snap-*"} {
		names, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if err := os.Rename(name, filepath.Join(sub, filepath.Base(name))); err != nil {
				t.Fatal(err)
			}
		}
	}
	s, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	gotStrings, gotIDs := s.Strings()
	assertSameStrings(t, wantStrings, wantIDs, gotStrings, gotIDs)
	if s.NextID() != eng.NextID() {
		t.Fatalf("NextID %d after the move, want %d", s.NextID(), eng.NextID())
	}
}

// TestAdoptFollowsEngineWrites: an adopted engine can also be written to
// directly, and the corpus's batches then continue at the engine's next id
// instead of an id the engine has already passed. That holds when the two
// writers alternate and when they race: no batch is refused, and every id
// either of them was given holds the string it was given for.
func TestAdoptFollowsEngineWrites(t *testing.T) {
	xs := corpus(t, 64, 6)
	eng, st, err := store.Open(t.TempDir(), func() *engine.Engine {
		return engine.New(engine.Options{Kernel: &core.Kast{CutWeight: 2}})
	}, store.Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := Adopt(eng, st)
	for lo := 0; lo < 24; lo += 4 {
		batch := xs[lo : lo+4]
		if lo%8 != 0 {
			if _, err := eng.AddBatch(batch); err != nil {
				t.Fatal(err)
			}
			continue
		}
		next := eng.NextID()
		ids, err := s.AddBatch(batch)
		if err != nil {
			t.Fatalf("corpus batch at engine id %d: %v", next, err)
		}
		if !slices.Equal(ids, []int{next, next + 1, next + 2, next + 3}) {
			t.Fatalf("corpus batch took ids %v, want 4 from %d", ids, next)
		}
		if s.NextID() != eng.NextID() {
			t.Fatalf("corpus NextID %d, engine NextID %d", s.NextID(), eng.NextID())
		}
	}

	// The racing writers: batches of 4 through the corpus and straight into
	// the engine at the same time, 20 traces each.
	writers := []func([]token.String) ([]int, error){s.AddBatch, eng.AddBatch}
	got := make([][]int, len(writers))
	errs := make([]error, len(writers))
	var wg sync.WaitGroup
	for w, add := range writers {
		wg.Add(1)
		go func(w int, add func([]token.String) ([]int, error)) {
			defer wg.Done()
			for lo := 24 + 20*w; lo < 44+20*w; lo += 4 {
				ids, err := add(xs[lo : lo+4])
				if err != nil {
					errs[w] = err
					return
				}
				got[w] = append(got[w], ids...)
			}
		}(w, add)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("racing writer %d: %v", w, err)
		}
		for i, id := range got[w] {
			if x, ok := s.StringAt(id); !ok || !slices.Equal(x, xs[24+20*w+i]) {
				t.Fatalf("racing writer %d: id %d does not hold its string", w, id)
			}
		}
	}
	if s.Len() != len(xs) || s.Err() != nil || !s.Durable() || s.Shards() != 1 {
		t.Fatalf("Len=%d Err=%v Durable=%v Shards=%d", s.Len(), s.Err(), s.Durable(), s.Shards())
	}
}

func TestShardedBasicLifecycle(t *testing.T) {
	xs := corpus(t, 12, 1)
	opt := kastOptions()
	opt.Engine.SketchDim = -1
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	var ids []int
	for _, x := range xs[:4] {
		ids = append(ids, s.Add(x))
	}
	batchIDs, err := s.AddBatch(xs[4:])
	if err != nil {
		t.Fatal(err)
	}
	ids = append(ids, batchIDs...)
	for i, id := range ids {
		if id != i {
			t.Fatalf("ids not sequential: %v", ids)
		}
	}
	if s.Len() != len(xs) || s.NextID() != len(xs) {
		t.Fatalf("Len=%d NextID=%d, want %d", s.Len(), s.NextID(), len(xs))
	}

	// Every entry landed in the shard its id routes to, and is resolvable.
	got, gotIDs := s.Strings()
	for i, x := range got {
		if !x.Equal(xs[gotIDs[i]]) {
			t.Fatalf("entry %d does not round-trip", gotIDs[i])
		}
	}

	if err := s.Remove(3); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove(3); err == nil {
		t.Fatal("double remove accepted")
	}
	if err := s.Remove(len(xs) + 5); err == nil {
		t.Fatal("remove of unassigned id accepted")
	}
	if s.Len() != len(xs)-1 {
		t.Fatalf("Len=%d after remove, want %d", s.Len(), len(xs)-1)
	}
	if _, err := s.Similar(3, 5); err == nil {
		t.Fatal("Similar on removed id succeeded")
	}
	ns, err := s.Similar(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 5 {
		t.Fatalf("got %d neighbors, want 5", len(ns))
	}
	for _, nb := range ns {
		if nb.ID == 0 || nb.ID == 3 {
			t.Fatalf("neighbor list contains query or removed id: %+v", ns)
		}
	}
	if _, err := s.SimilarTrace(nil, 5, -1); err == nil {
		t.Fatal("empty query accepted")
	}
	if s.Err() != nil {
		t.Fatalf("in-memory corpus reports persistence error: %v", s.Err())
	}
}

func TestShardedDurableReopen(t *testing.T) {
	dir := t.TempDir()
	xs := corpus(t, 16, 2)
	opt := kastOptions()
	s, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddBatch(xs[:10]); err != nil {
		t.Fatal(err)
	}
	for _, x := range xs[10:] {
		s.Add(x)
	}
	if err := s.Remove(5); err != nil {
		t.Fatal(err)
	}
	wantSim, err := s.Similar(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != len(xs)-1 || r.NextID() != len(xs) {
		t.Fatalf("recovered Len=%d NextID=%d, want %d/%d", r.Len(), r.NextID(), len(xs)-1, len(xs))
	}
	gotSim, err := r.Similar(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	assertNeighborsEqual(t, "reopen Similar", wantSim, gotSim)

	// The accessor surface is coherent after recovery.
	if r.Shards() != opt.Shards || r.Seed() != opt.Seed || !r.Durable() {
		t.Fatalf("Shards=%d Seed=%d Durable=%v", r.Shards(), r.Seed(), r.Durable())
	}
	if name := r.Kernel().Name(); !strings.Contains(name, "kast") {
		t.Fatalf("Kernel() = %q", name)
	}
	if stats := r.Stats(); len(stats) != opt.Shards {
		t.Fatalf("Stats() returned %d entries", len(stats))
	}
	for i, e := range r.Errs() {
		if e != nil {
			t.Fatalf("shard %d reports error after clean recovery: %v", i, e)
		}
	}
	if err := r.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for i, st := range r.Stats() {
		if st.ReplayBacklog != 0 {
			t.Fatalf("shard %d backlog %d after explicit snapshot", i, st.ReplayBacklog)
		}
	}
}

// TestShardedRemovedTopIDNotReused: the corpus-wide highest id, removed,
// stays taken across a reopen, after Close and after a crash that follows
// a checkpoint of every shard (recovery then restores the snapshots and
// replays nothing). The shard that owned the id holds no live trace at or
// above it, so only the next id its snapshot records keeps the id from
// being assigned again.
func TestShardedRemovedTopIDNotReused(t *testing.T) {
	xs := corpus(t, 13, 5)
	for _, closed := range []bool{true, false} {
		t.Run(fmt.Sprintf("closed=%v", closed), func(t *testing.T) {
			dir := t.TempDir()
			opt := kastOptions()
			opt.Shards = 4
			s, err := Open(dir, opt)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.AddBatch(xs[:12]); err != nil {
				t.Fatal(err)
			}
			if err := s.Remove(11); err != nil {
				t.Fatal(err)
			}
			if closed {
				err = s.Close()
			} else {
				err = s.Snapshot() // then killed: no Close
			}
			if err != nil {
				t.Fatal(err)
			}

			r, err := Open(dir, opt)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if r.NextID() != 12 || r.Len() != 11 || r.Has(11) {
				t.Fatalf("reopened NextID=%d Len=%d Has(11)=%v, want 12, 11, false", r.NextID(), r.Len(), r.Has(11))
			}
			if id := r.Add(xs[12]); id != 12 {
				t.Fatalf("Add after reopen assigned id %d, want 12", id)
			}
		})
	}
}

// TestShardedKillWithoutClose is the clean crash: every mutation was
// acknowledged (per-shard WAL fsynced), the process dies without Close, and
// reopening must reproduce the corpus exactly.
func TestShardedKillWithoutClose(t *testing.T) {
	dir := t.TempDir()
	xs := corpus(t, 14, 3)
	opt := kastOptions()
	s, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddBatch(xs); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove(7); err != nil {
		t.Fatal(err)
	}
	wantStrings, wantIDs := s.Strings()
	wantSim, err := s.Similar(1, -1)
	if err != nil {
		t.Fatal(err)
	}
	// Kill: no Close, no checkpoint.

	r, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	gotStrings, gotIDs := r.Strings()
	assertSameStrings(t, wantStrings, wantIDs, gotStrings, gotIDs)
	gotSim, err := r.Similar(1, -1)
	if err != nil {
		t.Fatal(err)
	}
	assertNeighborsEqual(t, "post-kill Similar", wantSim, gotSim)
}

// TestShardedTornBatchRecovery kills mid-AddBatch: one shard committed its
// sub-batch, the others never saw theirs. Recovery must keep every
// acknowledged entry, roll the committed (unacknowledged) sub-batch
// forward, leave the lost ids absent, and settle into a state that is
// identical on every further reopen.
func TestShardedTornBatchRecovery(t *testing.T) {
	dir := t.TempDir()
	xs := corpus(t, 24, 4)
	opt := kastOptions()
	s, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	acked := xs[:12]
	if _, err := s.AddBatch(acked); err != nil {
		t.Fatal(err)
	}
	ackedStrings, ackedIDs := s.Strings()

	// Simulate the torn batch: route the next 12 globals, but commit only
	// the sub-batch of the shard that owns the first of them, bypassing the
	// supervisor — exactly the state a kill between per-shard commits
	// leaves on disk.
	first := s.NextID()
	target := Route(first, opt.Seed, opt.Shards)
	var sub []token.String
	var committed, lost []int
	for t2 := 0; t2 < 12; t2++ {
		if Route(first+t2, opt.Seed, opt.Shards) == target {
			sub = append(sub, xs[12+t2])
			committed = append(committed, first+t2)
		} else {
			lost = append(lost, first+t2)
		}
	}
	if len(committed) == 0 || len(lost) == 0 {
		t.Fatalf("degenerate routing for this seed: committed=%v lost=%v", committed, lost)
	}
	if err := s.engines[target].Insert(committed, sub); err != nil {
		t.Fatal(err)
	}
	// Kill: no Close.

	r, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Globals after the last committed one never materialised, so they are
	// assigned again.
	lastCommitted := committed[len(committed)-1]
	if r.NextID() != lastCommitted+1 {
		t.Fatalf("NextID = %d, want %d", r.NextID(), lastCommitted+1)
	}

	// Every acknowledged entry survived, verbatim.
	gotStrings, gotIDs := r.Strings()
	byID := map[int]token.String{}
	for i, id := range gotIDs {
		byID[id] = gotStrings[i]
	}
	for i, id := range ackedIDs {
		got, ok := byID[id]
		if !ok {
			t.Fatalf("acknowledged id %d lost in recovery", id)
		}
		if !got.Equal(ackedStrings[i]) {
			t.Fatalf("acknowledged id %d corrupted in recovery", id)
		}
	}
	// The committed sub-batch rolled forward live; the lost globals read as
	// absent.
	for _, g := range committed {
		if _, ok := byID[g]; !ok {
			t.Fatalf("rolled-forward id %d not live", g)
		}
	}
	for _, g := range lost {
		if _, ok := byID[g]; ok {
			t.Fatalf("lost id %d reads as live", g)
		}
		if g < lastCommitted {
			if err := r.Remove(g); err == nil {
				t.Fatalf("lost id %d accepted a Remove", g)
			}
		}
	}

	// The corpus keeps working: new ingest and queries.
	newID := r.Add(xs[0])
	if newID != lastCommitted+1 {
		t.Fatalf("post-recovery Add assigned %d, want %d", newID, lastCommitted+1)
	}
	if _, err := r.Similar(newID, 5); err != nil {
		t.Fatal(err)
	}
	wantStrings, wantIDs := r.Strings()
	wantNext := r.NextID()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery is deterministic: a further reopen yields the identical
	// corpus and next id.
	r2, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	gotStrings, gotIDs = r2.Strings()
	assertSameStrings(t, wantStrings, wantIDs, gotStrings, gotIDs)
	if r2.NextID() != wantNext {
		t.Fatalf("NextID = %d after second reopen, want %d", r2.NextID(), wantNext)
	}
}

func assertSameStrings(t *testing.T, wantStrings []token.String, wantIDs []int, gotStrings []token.String, gotIDs []int) {
	t.Helper()
	if len(wantIDs) != len(gotIDs) {
		t.Fatalf("%d live entries, want %d", len(gotIDs), len(wantIDs))
	}
	for i := range wantIDs {
		if wantIDs[i] != gotIDs[i] {
			t.Fatalf("live ids %v, want %v", gotIDs, wantIDs)
		}
		if !wantStrings[i].Equal(gotStrings[i]) {
			t.Fatalf("entry %d does not match", wantIDs[i])
		}
	}
}

// TestShardedIDSpaceLimit: one id space spans the shards, so the engine's
// id bound bounds the corpus as a whole. A batch that would cross it is
// refused whole, before any shard inserts a part of it, and Add past it
// returns -1. One shard, whose batches are its engine's own, is held to the
// same.
func TestShardedIDSpaceLimit(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) { testIDSpaceLimit(t, shards) })
	}
}

func testIDSpaceLimit(t *testing.T, shards int) {
	xs := corpus(t, 2, 1)
	opt := kastOptions()
	opt.Shards = shards
	opt.Engine.SketchDim = -1
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	// An id inserted and removed just below the last one leaves the corpus
	// empty with its next id at the last slot.
	last := engine.MaxIDs - 1
	if err := s.owner(last-1).Insert([]int{last - 1}, xs[:1]); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove(last - 1); err != nil {
		t.Fatal(err)
	}
	before := make([]int, len(s.engines))
	for sh, e := range s.engines {
		before[sh] = e.NextID()
	}
	if ids, err := s.AddBatch(xs); ids != nil || !errors.Is(err, engine.ErrIDSpaceFull) {
		t.Fatalf("AddBatch across the limit = %v, %v; want nil, ErrIDSpaceFull", ids, err)
	}
	for sh, e := range s.engines {
		if e.NextID() != before[sh] {
			t.Fatalf("shard %d took part of a refused batch: NextID %d, was %d", sh, e.NextID(), before[sh])
		}
	}
	if id := s.Add(xs[0]); id != last || !s.Has(last) {
		t.Fatalf("Add of the last id = %d (Has=%v), want %d", id, s.Has(last), last)
	}
	if id := s.Add(xs[1]); id != -1 || s.NextID() != engine.MaxIDs || s.Len() != 1 {
		t.Fatalf("Add past the limit = %d, NextID=%d Len=%d; want -1, %d, 1", id, s.NextID(), s.Len(), engine.MaxIDs)
	}
}

// TestSimilarTraceSketchesOnce is the regression test for the fan-out
// fix: a sharded query-by-trace must embed the query exactly once and
// share the prepared sketch across every shard, not re-sketch per shard.
func TestSimilarTraceSketchesOnce(t *testing.T) {
	xs := corpus(t, 20, 3)
	queries := corpus(t, 24, 4)[20:]
	for _, spec := range []cli.KernelSpec{
		{Name: "kast", CutWeight: 2},
		{Name: "kast", CutWeight: 4},
	} {
		kern, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		sh, err := New(Options{Shards: 4, Seed: 2, Engine: engine.Options{Kernel: kern}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sh.AddBatch(xs); err != nil {
			t.Fatal(err)
		}
		for qi, q := range queries {
			before := sketch.SketchOps()
			if _, err := sh.SimilarTrace(q, 5, -1); err != nil {
				t.Fatal(err)
			}
			if ops := sketch.SketchOps() - before; ops != 1 {
				t.Fatalf("cut %d query %d: %d sketch operations for one fan-out, want 1", spec.CutWeight, qi, ops)
			}
		}
	}
}
