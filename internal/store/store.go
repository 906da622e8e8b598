package store

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"iokast/internal/engine"
	"iokast/internal/token"
)

// File layout inside the data directory:
//
//	snap-<seq>.iok   engine snapshot taken with <seq> mutations applied
//	wal-<seq>.log    log segment whose first record is mutation <seq>
//
// Segments are contiguous: each rotation starts the next segment at the
// current sequence number, so segment k ends where segment k+1 begins.
// Recovery restores the newest readable snapshot, then replays every
// record at or after its sequence number from the covering segments, and
// refuses a segment that does not start where the one before it ended.
const (
	snapPattern = "snap-%016d.iok"
	walPattern  = "wal-%016d.log"
)

// Options configure a Store.
type Options struct {
	// SnapshotEvery is the number of mutations between automatic
	// background snapshots; 0 means the default (1024), negative disables
	// automatic snapshots (Snapshot can still be called manually).
	SnapshotEvery int
	// NoSync skips the fsync after each appended record. Throughput rises
	// sharply, but a machine crash (not just a process crash) can lose
	// recent mutations. Process kills lose nothing either way: the data
	// reaches the kernel on every append.
	NoSync bool
	// Metrics are the telemetry hooks; the zero value disables them.
	Metrics Metrics
}

// Store is the durability sidecar of one engine: it implements engine.Log
// by appending to the current WAL segment, and takes snapshots that bound
// replay time. All methods are safe for concurrent use.
type Store struct {
	dir  string
	opts Options
	eng  *engine.Engine

	mu        sync.Mutex
	f         *os.File  // current segment, append-only
	segments  []segment // on-disk segments, ascending start; last is current
	nextSeq   uint64    // sequence number of the next record
	snapSeq   uint64    // newest durable snapshot's sequence number
	appends   uint64    // records appended since Open
	appBytes  int64     // bytes appended since Open
	snapCount uint64    // snapshots written since Open
	snapBytes int64     // size of the newest snapshot
	torn      bool      // recovery stopped at a torn/corrupt record
	closed    bool

	snapMu     sync.Mutex // serialises snapshot writers
	snapQueued bool       // an automatic snapshot is scheduled (under mu)
	wg         sync.WaitGroup
	buf        bytes.Buffer // append scratch (under mu)
}

type segment struct {
	start uint64
	path  string
}

// Stats is a point-in-time view of the store, served by GET /debug/store.
type Stats struct {
	Dir             string `json:"dir"`
	Seq             uint64 `json:"seq"`
	SnapshotSeq     uint64 `json:"snapshot_seq"`
	ReplayBacklog   uint64 `json:"replay_backlog"` // mutations a restart would replay
	WALSegments     int    `json:"wal_segments"`
	AppendedRecords uint64 `json:"appended_records"`
	AppendedBytes   int64  `json:"appended_bytes"`
	Snapshots       uint64 `json:"snapshots"`
	SnapshotBytes   int64  `json:"snapshot_bytes"`
	RecoveredTorn   bool   `json:"recovered_torn_tail,omitempty"`
	Sync            bool   `json:"sync"`
	Err             string `json:"err,omitempty"`
}

// Open recovers (or initialises) a durable engine from dir. newEngine must
// return a fresh, empty engine configured with the target kernel and
// options; it may be called more than once if an older snapshot has to be
// tried. On success the returned engine has the store attached as its
// mutation log, and the store owns a freshly rotated WAL segment.
//
// Recovery is fail-safe, not fail-silent: an unreadable snapshot falls
// back to the next older one, a torn record ends replay at the last intact
// mutation, but a sequence gap (files deleted by hand) is an error.
func Open(dir string, newEngine func() *engine.Engine, opts Options) (*engine.Engine, *Store, error) {
	if opts.SnapshotEvery == 0 {
		opts.SnapshotEvery = 1024
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	// A MANIFEST marks a sharded corpus (internal/shard): its WAL segments
	// live in per-shard subdirectories this store would never read, so
	// opening the root as a single-engine store would silently serve an
	// empty corpus — refuse instead.
	if _, err := os.Stat(filepath.Join(dir, "MANIFEST")); err == nil {
		return nil, nil, fmt.Errorf("store: %s is a sharded corpus directory (MANIFEST present); open it with iokast.OpenSharded or iokserve -shards", dir)
	}
	snaps, segs, err := scanDir(dir)
	if err != nil {
		return nil, nil, err
	}

	s := &Store{dir: dir, opts: opts}
	eng, torn, err := s.recover(newEngine, snaps, segs)
	if err != nil {
		return nil, nil, err
	}
	s.eng = eng
	s.torn = torn

	// Checkpoint the recovered state and start a fresh segment, so the
	// directory always holds one snapshot plus the segments after it, and
	// everything older can be deleted.
	if err := s.writeSnapshot(); err != nil {
		return nil, nil, fmt.Errorf("store: initial snapshot: %w", err)
	}
	s.mu.Lock()
	s.nextSeq = eng.Seq()
	err = s.rotateLocked()
	s.mu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	s.removeObsolete()

	eng.SetLog(s)
	return eng, s, nil
}

// scanDir inventories snapshots (descending seq) and segments (ascending
// start). Unrelated files are ignored; temp files from crashed snapshot
// writes are deleted.
func scanDir(dir string) (snaps []segment, segs []segment, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		var seq uint64
		switch {
		case matchSeq(name, snapPattern, &seq):
			snaps = append(snaps, segment{seq, filepath.Join(dir, name)})
		case matchSeq(name, walPattern, &seq):
			segs = append(segs, segment{seq, filepath.Join(dir, name)})
		case len(name) > 4 && name[len(name)-4:] == ".tmp":
			_ = os.Remove(filepath.Join(dir, name))
		}
	}
	// Starts are unique (one file per name) so the ascending sort is a
	// total order; contiguity is checked during replay, not here.
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].start > snaps[j].start })
	sort.Slice(segs, func(i, j int) bool { return segs[i].start < segs[j].start })
	return snaps, segs, nil
}

func matchSeq(name, pattern string, seq *uint64) bool {
	i := strings.IndexByte(pattern, '%')
	prefix, suffix := pattern[:i], pattern[i+5:] // skip the "%016d" verb
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return false
	}
	digits := name[len(prefix) : len(name)-len(suffix)]
	if len(digits) != 16 {
		return false
	}
	v, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return false
	}
	*seq = v
	return true
}

// recover builds an engine from the newest usable snapshot plus replay.
// When no candidate recovers, the error joins every candidate's reason,
// newest snapshot first, each naming its snapshot.
func (s *Store) recover(newEngine func() *engine.Engine, snaps, segs []segment) (*engine.Engine, bool, error) {
	// Try snapshots newest-first; append the "no snapshot" case.
	candidates := append(append([]segment(nil), snaps...), segment{0, ""})
	var errs []error
	for _, snap := range candidates {
		eng := newEngine()
		torn, err := s.recoverFrom(eng, snap, segs)
		if err == nil {
			return eng, torn, nil
		}
		if snap.path == "" {
			err = fmt.Errorf("store: replay without a snapshot: %w", err)
		} else {
			err = fmt.Errorf("store: snapshot %s: %w", snap.path, err)
		}
		errs = append(errs, err)
	}
	return nil, false, fmt.Errorf("store: recovery failed: %w", errors.Join(errs...))
}

// recoverFrom restores snap into eng, unless snap.path is empty, and
// replays the records after it.
func (s *Store) recoverFrom(eng *engine.Engine, snap segment, segs []segment) (torn bool, err error) {
	if snap.path != "" {
		if err := restoreSnapshot(eng, snap.path); err != nil {
			return false, err
		}
		if eng.Seq() != snap.start {
			return false, fmt.Errorf("store: restored seq %d, the file name says %d", eng.Seq(), snap.start)
		}
	}
	return s.replay(eng, segs, snap.start)
}

func restoreSnapshot(eng *engine.Engine, path string) (err error) {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	return eng.Restore(f)
}

// replay applies every record at or after fromSeq. It returns torn=true if
// it stopped at an unreadable record (everything before it was applied).
// Inserts may skip ids, so the ids cannot reveal a missing segment; the
// sequence numbers do: each replayed segment must start where the one
// before it ended.
func (s *Store) replay(eng *engine.Engine, segs []segment, fromSeq uint64) (torn bool, err error) {
	replayed := false
	var end uint64
	for i, seg := range segs {
		// A segment is entirely superseded if the next one starts at or
		// before fromSeq.
		if i+1 < len(segs) && segs[i+1].start <= fromSeq {
			continue
		}
		if seg.start > fromSeq && i == 0 {
			return false, fmt.Errorf("store: replay gap: oldest segment starts at %d, snapshot at %d", seg.start, fromSeq)
		}
		if replayed && seg.start != end {
			return false, fmt.Errorf("store: replay gap: %s starts at %d, the segment before it ends at %d", seg.path, seg.start, end)
		}
		end, torn, err = s.replaySegment(eng, seg, fromSeq)
		if err != nil {
			return false, err
		}
		if torn {
			// Records after a torn one cannot be ordered reliably; later
			// segments (there should be none — the torn tail is the crash
			// point) are ignored.
			return true, nil
		}
		replayed = true
	}
	return false, nil
}

// replaySegment applies the segment's records at or after fromSeq and
// returns the sequence number its last intact record ends at.
func (s *Store) replaySegment(eng *engine.Engine, seg segment, fromSeq uint64) (end uint64, torn bool, err error) {
	f, err := os.Open(seg.path)
	if err != nil {
		return 0, false, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	seq := seg.start
	for {
		rec, err := readRecord(br)
		if err == io.EOF {
			return seq, false, nil
		}
		if errors.Is(err, errTornRecord) {
			return seq, true, nil
		}
		if err != nil {
			return 0, false, fmt.Errorf("store: %s: %w", seg.path, err)
		}
		end := seq + rec.ops()
		switch {
		case end <= fromSeq: // fully covered by the snapshot
		case seq >= fromSeq:
			if err := apply(eng, rec); err != nil {
				return 0, false, fmt.Errorf("store: %s at seq %d: %w", seg.path, seq, err)
			}
			s.opts.Metrics.ReplayRecords.Inc()
		default:
			return 0, false, fmt.Errorf("store: %s: snapshot seq %d splits record [%d,%d)", seg.path, fromSeq, seq, end)
		}
		seq = end
	}
}

// apply replays one record. The engine has no log attached during replay,
// so nothing is re-appended; Insert refuses ids below the engine's NextID,
// so a record is never applied twice.
func apply(eng *engine.Engine, rec record) error {
	if rec.typ == recRemove {
		return eng.Remove(rec.ids[0])
	}
	return eng.Insert(rec.ids, rec.strings)
}

// --- engine.Log implementation -------------------------------------------

// LogInsert and LogRemove append one framed record and flush it to the OS
// (plus fsync unless NoSync). They are called under the engine's write
// lock, which serialises them and keeps the log order equal to the id
// order.

func (s *Store) LogInsert(ids []int, xs []token.String) error {
	return s.append(record{typ: recInsert, ids: ids, strings: xs})
}

func (s *Store) LogRemove(id int) error {
	return s.append(record{typ: recRemove, ids: []int{id}})
}

// LogAddBatch logs xs as one insert under the consecutive ids firstID,
// firstID+1, .... The engine never calls it; perfbench's traced run does,
// to time WAL appends alone (store.wal_append_us).
func (s *Store) LogAddBatch(firstID int, xs []token.String) error {
	ids := make([]int, len(xs))
	for t := range ids {
		ids[t] = firstID + t
	}
	return s.LogInsert(ids, xs)
}

func (s *Store) append(rec record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	s.buf.Reset()
	encodeRecord(&s.buf, rec)
	if payload := s.buf.Len() - 8; payload > maxRecordLen {
		// Refuse rather than write: a frame the reader rejects would be
		// fsynced, acknowledged as durable, and then silently dropped as a
		// torn tail on the next recovery — the one way to break the
		// "acknowledged is never lost" contract. The error surfaces
		// through engine.Err; callers should split the batch.
		return fmt.Errorf("store: record of %d bytes exceeds limit %d", payload, maxRecordLen)
	}
	if _, err := s.f.Write(s.buf.Bytes()); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	if !s.opts.NoSync {
		var t0 time.Time
		if s.opts.Metrics.FsyncSeconds != nil {
			t0 = time.Now()
		}
		//iokvet:allow lockscope(WAL fsync under s.mu is the durability point: Append must not return — and no later writer may proceed — until this record is on disk)
		if err := s.f.Sync(); err != nil {
			return fmt.Errorf("store: sync: %w", err)
		}
		if s.opts.Metrics.FsyncSeconds != nil {
			s.opts.Metrics.FsyncSeconds.Observe(time.Since(t0))
		}
	}
	s.nextSeq += rec.ops()
	s.appends++
	s.appBytes += int64(s.buf.Len())
	s.opts.Metrics.WALAppends.Inc()
	s.opts.Metrics.WALBytes.Add(int64(s.buf.Len()))
	if s.opts.SnapshotEvery > 0 && !s.snapQueued &&
		s.nextSeq-s.snapSeq >= uint64(s.opts.SnapshotEvery) {
		s.snapQueued = true
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			_ = s.Snapshot() // failure leaves the WAL authoritative
		}()
	}
	return nil
}

// --- snapshots ------------------------------------------------------------

// Snapshot checkpoints the engine now: it writes a snapshot atomically
// (temp file, fsync, rename), rotates the WAL, and deletes files the new
// snapshot supersedes. Replay work after a crash is bounded by the
// mutations since the last call. Safe to call at any time; concurrent
// calls are serialised.
func (s *Store) Snapshot() error {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	defer func() {
		s.mu.Lock()
		s.snapQueued = false
		s.mu.Unlock()
	}()
	if err := s.writeSnapshot(); err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	err := s.rotateLocked()
	s.mu.Unlock()
	if err != nil {
		return err
	}
	s.removeObsolete()
	return nil
}

// writeSnapshot dumps the engine to snap-<seq>.iok with an atomic rename.
// Callers must hold snapMu (or be single-threaded, as in Open).
func (s *Store) writeSnapshot() error {
	var t0 time.Time
	if s.opts.Metrics.SnapshotSeconds != nil {
		t0 = time.Now()
	}
	tmp, err := os.CreateTemp(s.dir, "snap-*.tmp")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	seq, err := s.eng.Snapshot(tmp)
	if err != nil {
		tmp.Close()
		return fmt.Errorf("store: snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: snapshot sync: %w", err)
	}
	size, _ := tmp.Seek(0, io.SeekCurrent)
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: snapshot close: %w", err)
	}
	final := filepath.Join(s.dir, fmt.Sprintf(snapPattern, seq))
	//iokvet:allow atomicwrite(snapshot commit is itself a temp+fsync+rename sequence: this rename is the atomic publish step, not a raw overwrite)
	if err := os.Rename(tmp.Name(), final); err != nil {
		return fmt.Errorf("store: snapshot commit: %w", err)
	}
	syncDir(s.dir)
	s.mu.Lock()
	if seq > s.snapSeq {
		s.snapSeq = seq
	}
	s.snapCount++
	s.snapBytes = size
	s.mu.Unlock()
	s.opts.Metrics.Snapshots.Inc()
	s.opts.Metrics.SnapshotBytes.Set(size)
	if s.opts.Metrics.SnapshotSeconds != nil {
		s.opts.Metrics.SnapshotSeconds.Observe(time.Since(t0))
	}
	return nil
}

// rotateLocked closes the current segment (if any) and opens a new one
// starting at nextSeq. Caller holds s.mu.
func (s *Store) rotateLocked() error {
	if n := len(s.segments); s.f != nil && n > 0 && s.segments[n-1].start == s.nextSeq {
		// No records since the last rotation: the current segment already
		// starts at nextSeq and is empty. Rotating would reopen (and
		// truncate) the same file and duplicate its segment entry, which
		// the cleanup pass would then mistake for an obsolete segment and
		// unlink out from under the writer.
		return nil
	}
	if s.f != nil {
		if err := s.f.Sync(); err != nil {
			return fmt.Errorf("store: rotate sync: %w", err)
		}
		if err := s.f.Close(); err != nil {
			return fmt.Errorf("store: rotate close: %w", err)
		}
		s.f = nil
	}
	// O_TRUNC, not O_APPEND-onto-whatever-exists: rotation always follows
	// a committed snapshot covering everything below nextSeq, so a
	// leftover file at this name (e.g. the torn head of a segment a crash
	// interrupted at its very first record) is garbage that must not
	// precede the new records — replay stops at the first torn frame.
	path := filepath.Join(s.dir, fmt.Sprintf(walPattern, s.nextSeq))
	//iokvet:allow atomicwrite(segment rotation IS the WAL writer: the new segment is created empty and becomes durable record by record via Append fsyncs)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: rotate: %w", err)
	}
	s.f = f
	s.segments = append(s.segments, segment{s.nextSeq, path})
	syncDir(s.dir)
	return nil
}

// removeObsolete deletes snapshots older than the newest one, tracked
// segments every record of which is covered by it, and untracked wal files
// left over from before recovery (the post-recovery checkpoint supersedes
// them in full).
func (s *Store) removeObsolete() {
	s.mu.Lock()
	snapSeq := s.snapSeq
	keep := s.segments[:0]
	var drop []string
	for i, seg := range s.segments {
		if i+1 < len(s.segments) && s.segments[i+1].start <= snapSeq {
			drop = append(drop, seg.path)
			continue
		}
		keep = append(keep, seg)
	}
	s.segments = append([]segment(nil), keep...)
	tracked := make(map[string]bool, len(s.segments))
	for _, seg := range s.segments {
		tracked[seg.path] = true
	}
	s.mu.Unlock()

	for _, path := range drop {
		_ = os.Remove(path)
	}
	snaps, segs, err := scanDir(s.dir)
	if err != nil {
		return
	}
	for _, snap := range snaps {
		if snap.start < snapSeq {
			_ = os.Remove(snap.path)
		}
	}
	for _, seg := range segs {
		if !tracked[seg.path] {
			_ = os.Remove(seg.path)
		}
	}
}

// --- lifecycle ------------------------------------------------------------

// Close detaches the store from the engine, waits for in-flight snapshot
// work, takes a final checkpoint, and closes the segment. The engine stays
// usable in memory; further mutations are no longer persisted.
func (s *Store) Close() error {
	s.eng.SetLog(nil)
	s.wg.Wait()
	snapErr := s.Snapshot()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var closeErr error
	if s.f != nil {
		//iokvet:allow lockscope(final fsync on Close under s.mu: the store is shutting down and no concurrent reader exists to stall)
		if err := s.f.Sync(); err != nil {
			closeErr = err
		}
		if err := s.f.Close(); err != nil && closeErr == nil {
			closeErr = err
		}
		s.f = nil
	}
	if snapErr != nil {
		return snapErr
	}
	return closeErr
}

// Stats returns a point-in-time view of the store.
func (s *Store) Stats() Stats {
	// The engine error is read before s.mu: engine mutators call append
	// while holding the engine write lock, so acquiring an engine lock
	// with s.mu held would invert that order and deadlock.
	engErr := s.eng.Err()
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Dir:             s.dir,
		Seq:             s.nextSeq,
		SnapshotSeq:     s.snapSeq,
		ReplayBacklog:   s.nextSeq - s.snapSeq,
		WALSegments:     len(s.segments),
		AppendedRecords: s.appends,
		AppendedBytes:   s.appBytes,
		Snapshots:       s.snapCount,
		SnapshotBytes:   s.snapBytes,
		RecoveredTorn:   s.torn,
		Sync:            !s.opts.NoSync,
	}
	if engErr != nil {
		st.Err = engErr.Error()
	}
	return st
}

// AtomicWriteFile commits data to path with the same discipline snapshots
// use: write to a temp file in the same directory, fsync, rename over the
// final name, and fsync the directory. Readers therefore always see either
// the old contents or the complete new ones, never a torn write.
// internal/shard uses it for the sharded-corpus MANIFEST.
func AtomicWriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+"-*.tmp")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("store: write %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: sync %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: close %s: %w", path, err)
	}
	//iokvet:allow atomicwrite(this IS AtomicWriteFile: the rename after fsync is the atomic publish the rest of the tree is routed through)
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: commit %s: %w", path, err)
	}
	syncDir(dir)
	return nil
}

// syncDir best-effort fsyncs a directory so renames and creates are
// durable. Some filesystems (and macOS) reject directory fsync; that is
// not worth failing a commit over.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}
