package store

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"iokast/internal/core"
	"iokast/internal/engine"
	"iokast/internal/token"
)

// TestDataDirBytesPinned pins the bytes a store writes for one corpus:
// every WAL segment and snapshot after a batch insert, a remove, a single
// insert and a snapshot, with sketching off. Records and snapshot entries
// hold strings in the token text codec, so this catches any change to
// that text as well as to the framing. The WAL digests were recorded with
// the fmt-based codec that strconv replaced, so a data dir reads the same
// whichever of the two wrote it. The snapshot digests are those of
// snapshot version 5, which holds the strings and nothing derived from
// them.
func TestDataDirBytesPinned(t *testing.T) {
	all := corpus(t, 110, 5)
	var xs []token.String
	for i := 0; i < len(all); i += 4 { // every category of the paper dataset
		xs = append(xs, all[i])
	}
	dir := t.TempDir()
	// No sketches: the files hold strings only, and the codec under test
	// is the text.
	eng, st, err := Open(dir, func() *engine.Engine {
		return engine.New(engine.Options{Kernel: &core.Kast{CutWeight: 2}, SketchDim: -1})
	}, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.AddBatch(xs[1:]); err != nil {
		t.Fatal(err)
	}
	eng.Remove(3)
	eng.Add(xs[0])
	files := func() map[string]string {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]string{}
		for _, e := range ents {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name()] = fmt.Sprintf("%d %x", len(data), sha256.Sum256(data))
		}
		return out
	}
	logged := files()
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	snapped := files()
	for _, c := range []struct {
		when      string
		got, want map[string]string
	}{
		{"before the snapshot", logged, map[string]string{
			"snap-0000000000000000.iok": "42 0926a3cfa070a28ca679fb4e34272eceea3b4789a7c7d0449733b841caab82ec",
			"wal-0000000000000000.log":  "8701 07beefde59b63d646b27c562642d868bc9bf3b7cc01db52d1000449ea1f8605c",
		}},
		{"after the snapshot", snapped, map[string]string{
			"snap-0000000000000029.iok": "8316 3cf66e97d97d9436091fba70f9dc88e593aab86d9400e3c5aa7fc21a87afbb03",
			"wal-0000000000000029.log":  "0 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		}},
	} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: data dir holds %d files, want %d", c.when, len(c.got), len(c.want))
		}
		for name, w := range c.want {
			if c.got[name] != w {
				t.Errorf("%s: %s is %s, want %s", c.when, name, c.got[name], w)
			}
		}
	}
}
