package shard

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"

	"iokast/internal/store"
)

// The MANIFEST pins everything a sharded data directory's layout depends
// on: the shard count and hash seed (which together fix the id routing) and
// the kernel/sketch configuration every shard engine must be opened with.
// Open refuses a directory whose manifest disagrees with the requested
// options — reading shard WALs under a different routing or kernel would
// silently mis-assign every id — rather than guessing.
//
// Layout (all integers little-endian, lengths uvarint):
//
//	magic    "IOKSHRD1" (8 bytes)
//	version  byte (= 2; see manifestVersion)
//	shards   uvarint
//	seed     uint64, the Route hash seed
//	kernel   uvarint length + kernel.Name() bytes
//	sketch   flag byte 0 (disabled) or 1 (enabled); if enabled:
//	         uvarint dim + uint64 seed
//	crc      uint32 CRC-32C over everything above
//
// The version also fixes what the shard stores mean. Version 2 shard
// engines hold corpus-wide ids, one id space across every shard. Version 1
// shards held dense shard-local ids behind an id map that is gone, so their
// files would read as colliding corpus-wide ids; a version-1 directory is
// refused, and its corpus has to be ingested again into a new directory.
const (
	manifestName    = "MANIFEST"
	manifestMagic   = "IOKSHRD1"
	manifestVersion = 2
)

// maxShards bounds the shard count a manifest (or Options) may carry; a
// corrupted count must not drive directory fan-out or allocation.
const maxShards = 4096

var manifestCRCTable = crc32.MakeTable(crc32.Castagnoli)

// manifest is the decoded MANIFEST contents.
type manifest struct {
	shards     int
	seed       uint64
	kernel     string
	sketch     bool
	sketchDim  int
	sketchSeed uint64
}

func (m manifest) encode() []byte {
	var buf bytes.Buffer
	var scratch [binary.MaxVarintLen64]byte
	buf.WriteString(manifestMagic)
	buf.WriteByte(manifestVersion)
	buf.Write(scratch[:binary.PutUvarint(scratch[:], uint64(m.shards))])
	binary.LittleEndian.PutUint64(scratch[:8], m.seed)
	buf.Write(scratch[:8])
	buf.Write(scratch[:binary.PutUvarint(scratch[:], uint64(len(m.kernel)))])
	buf.WriteString(m.kernel)
	if !m.sketch {
		buf.WriteByte(0)
	} else {
		buf.WriteByte(1)
		buf.Write(scratch[:binary.PutUvarint(scratch[:], uint64(m.sketchDim))])
		binary.LittleEndian.PutUint64(scratch[:8], m.sketchSeed)
		buf.Write(scratch[:8])
	}
	binary.LittleEndian.PutUint32(scratch[:4], crc32.Checksum(buf.Bytes(), manifestCRCTable))
	buf.Write(scratch[:4])
	return buf.Bytes()
}

func decodeManifest(data []byte) (manifest, error) {
	var m manifest
	if len(data) < len(manifestMagic)+1+4 {
		return m, fmt.Errorf("shard: manifest truncated (%d bytes)", len(data))
	}
	payload, stored := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.Checksum(payload, manifestCRCTable); got != stored {
		return m, fmt.Errorf("shard: manifest crc mismatch: stored %08x, computed %08x", stored, got)
	}
	if string(payload[:len(manifestMagic)]) != manifestMagic {
		return m, fmt.Errorf("shard: bad manifest magic %q", payload[:len(manifestMagic)])
	}
	switch v := payload[len(manifestMagic)]; v {
	case manifestVersion:
	case 1:
		return m, fmt.Errorf("shard: manifest version 1: the shards hold shard-local ids, which this version no longer reads; ingest the corpus again into a new data directory")
	default:
		return m, fmt.Errorf("shard: unsupported manifest version %d", v)
	}
	br := bytes.NewReader(payload[len(manifestMagic)+1:])
	shards, err := binary.ReadUvarint(br)
	if err != nil || shards == 0 || shards > maxShards {
		return m, fmt.Errorf("shard: manifest shard count %d invalid", shards)
	}
	m.shards = int(shards)
	var u64 [8]byte
	if _, err := br.Read(u64[:]); err != nil {
		return m, fmt.Errorf("shard: manifest seed: %w", err)
	}
	m.seed = binary.LittleEndian.Uint64(u64[:])
	nameLen, err := binary.ReadUvarint(br)
	if err != nil || nameLen > 1024 {
		return m, fmt.Errorf("shard: manifest kernel name length invalid")
	}
	name := make([]byte, nameLen)
	if _, err := br.Read(name); err != nil {
		return m, fmt.Errorf("shard: manifest kernel name: %w", err)
	}
	m.kernel = string(name)
	flag, err := br.ReadByte()
	if err != nil {
		return m, fmt.Errorf("shard: manifest sketch flag: %w", err)
	}
	switch flag {
	case 0:
	case 1:
		m.sketch = true
		dim, err := binary.ReadUvarint(br)
		if err != nil || dim == 0 || dim > 1<<16 {
			return m, fmt.Errorf("shard: manifest sketch dim invalid")
		}
		m.sketchDim = int(dim)
		if _, err := br.Read(u64[:]); err != nil {
			return m, fmt.Errorf("shard: manifest sketch seed: %w", err)
		}
		m.sketchSeed = binary.LittleEndian.Uint64(u64[:])
	default:
		return m, fmt.Errorf("shard: manifest sketch flag %d invalid", flag)
	}
	if br.Len() != 0 {
		return m, fmt.Errorf("shard: manifest has %d trailing bytes", br.Len())
	}
	return m, nil
}

// loadOrCreateManifest reads and verifies the directory's MANIFEST, or
// writes want atomically if none exists yet. A manifest that disagrees with
// want on any field is a configuration error, reported field by field. A
// directory that has no manifest but does hold single-engine store files is
// refused rather than adopted: writing a MANIFEST beside a live WAL would
// make the existing corpus silently invisible (the shards would all open
// empty subdirectories). For one shard the refusal names the exact
// migration: every id routes to shard 0, and shard engines hold corpus-wide
// ids, so the root's store files are shard 0's store as they stand. LABELS
// stays at the root in both layouts.
func loadOrCreateManifest(path string, want manifest) error {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		dir := filepath.Dir(path)
		if !hasStoreFiles(dir) {
			return store.AtomicWriteFile(path, want.encode())
		}
		if want.shards == 1 {
			return fmt.Errorf("shard: %s holds single-engine store data with no MANIFEST; move it into shard 0 and open it again: mkdir %[1]s/%[2]s && mv %[1]s/wal-* %[1]s/snap-* %[1]s/%[2]s/", dir, ShardDir(0))
		}
		return fmt.Errorf("shard: %s holds single-engine store data with no MANIFEST; %d shards route its ids elsewhere, so ingest the corpus again into a new data directory (or open it with 1 shard after moving it into %s/)", dir, want.shards, ShardDir(0))
	}
	if err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	have, err := decodeManifest(data)
	if err != nil {
		return err
	}
	switch {
	case have.shards != want.shards:
		return fmt.Errorf("shard: directory holds %d shards, opened with %d", have.shards, want.shards)
	case have.seed != want.seed:
		return fmt.Errorf("shard: directory routed with seed %#x, opened with %#x", have.seed, want.seed)
	case have.kernel != want.kernel:
		return fmt.Errorf("shard: directory built with kernel %q, opened with %q", have.kernel, want.kernel)
	case have.sketch != want.sketch || have.sketchDim != want.sketchDim || have.sketchSeed != want.sketchSeed:
		return fmt.Errorf("shard: sketch config mismatch: directory (enabled=%v dim=%d seed=%#x), opened with (enabled=%v dim=%d seed=%#x)",
			have.sketch, have.sketchDim, have.sketchSeed, want.sketch, want.sketchDim, want.sketchSeed)
	}
	return nil
}

// hasStoreFiles reports whether dir holds single-engine store data (WAL
// segments or snapshots at the top level — a sharded layout keeps those
// only inside shard-NNN/ subdirectories).
func hasStoreFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if strings.HasPrefix(name, "wal-") || strings.HasPrefix(name, "snap-") {
			return true
		}
	}
	return false
}
