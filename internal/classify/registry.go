package classify

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync"
	"unicode/utf8"

	"iokast/internal/store"
)

// The labels file pins the id -> label assignments of a corpus. It sits
// beside the corpus data (next to the MANIFEST of a server data dir, at
// every shard count; a library caller may keep it beside one engine's WAL)
// and is committed with the same discipline as the shard MANIFEST:
// CRC-framed, written whole via an atomic temp+rename
// (store.AtomicWriteFile), so a crash at any point leaves
// either the previous complete table or the new one — never a torn file.
// Label mutations are rare next to queries, so rewriting the whole table
// per mutation batch costs little and keeps recovery trivial: read one
// file, verify one checksum.
//
// Layout (integers little-endian, lengths uvarint):
//
//	magic    "IOKLBLS1" (8 bytes)
//	version  byte (= 1)
//	count    uvarint
//	entries  count times: uvarint id, uvarint len, label bytes
//	         (ascending id, so encoding is canonical)
//	crc      uint32 CRC-32C over everything above
const (
	labelsMagic   = "IOKLBLS1"
	labelsVersion = 1
)

// DefaultLabelsFile is the file name a durable registry conventionally uses
// inside a corpus data directory.
const DefaultLabelsFile = "LABELS"

// MaxLabelLen bounds one label; longer strings are configuration mistakes,
// not workload names.
const MaxLabelLen = 256

// maxLabelEntries bounds how many entries a labels file may carry, so a
// corrupted count cannot drive a huge allocation before the CRC check.
const maxLabelEntries = 1 << 24

var labelsCRCTable = crc32.MakeTable(crc32.Castagnoli)

// Registry assigns labels to corpus ids. It is the mutable, durable half of
// the online classifier: ids are tagged via SetLabels, queries read labels
// through LabelOf, and GET /labels-style listings come from Counts. All
// methods are safe for concurrent use.
type Registry struct {
	mu     sync.RWMutex
	path   string // "" = in-memory only
	labels map[int]string
}

// NewRegistry returns an empty in-memory registry (no persistence).
func NewRegistry() *Registry {
	return &Registry{labels: make(map[int]string)}
}

// OpenRegistry loads the labels file at path, or initialises an empty
// registry bound to it if the file does not exist yet (it is created on the
// first mutation). Every later mutation rewrites the file atomically, so a
// kill at any point preserves the last committed table.
func OpenRegistry(path string) (*Registry, error) {
	r := &Registry{path: path, labels: make(map[int]string)}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return r, nil
	}
	if err != nil {
		return nil, fmt.Errorf("classify: %w", err)
	}
	labels, err := decodeLabels(data)
	if err != nil {
		return nil, err
	}
	r.labels = labels
	return r, nil
}

// ValidLabel reports whether s is acceptable as a label: non-empty, at most
// MaxLabelLen bytes, valid UTF-8, no control characters.
func ValidLabel(s string) error {
	if s == "" {
		return fmt.Errorf("classify: empty label")
	}
	if len(s) > MaxLabelLen {
		return fmt.Errorf("classify: label of %d bytes exceeds limit %d", len(s), MaxLabelLen)
	}
	if !utf8.ValidString(s) {
		return fmt.Errorf("classify: label is not valid UTF-8")
	}
	for _, r := range s {
		if r < 0x20 || r == 0x7f {
			return fmt.Errorf("classify: label contains control character %q", r)
		}
	}
	return nil
}

// SetLabels assigns labels to ids, all-or-nothing: every entry is validated
// first, then the table is updated and committed in one atomic file write.
// An empty label removes the id's assignment. Durability follows the
// MANIFEST discipline — on error the in-memory table is left unchanged.
func (r *Registry) SetLabels(assign map[int]string) error {
	for id, label := range assign {
		if id < 0 {
			return fmt.Errorf("classify: negative id %d", id)
		}
		if label == "" {
			continue // removal
		}
		if err := ValidLabel(label); err != nil {
			return fmt.Errorf("classify: id %d: %w", id, err)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	next := make(map[int]string, len(r.labels)+len(assign))
	for id, l := range r.labels {
		next[id] = l
	}
	for id, l := range assign {
		if l == "" {
			delete(next, id)
		} else {
			next[id] = l
		}
	}
	if r.path != "" {
		//iokvet:allow lockscope(label commits are rare and must serialize with readers: a reader observing new labels before the file is durable would break the crash-recovery contract)
		if err := store.AtomicWriteFile(r.path, encodeLabels(next)); err != nil {
			return err
		}
	}
	r.labels = next
	return nil
}

// SetLabel assigns one label ("" removes).
func (r *Registry) SetLabel(id int, label string) error {
	return r.SetLabels(map[int]string{id: label})
}

// LabelOf returns the label of id ("" and false when unlabelled).
func (r *Registry) LabelOf(id int) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	l, ok := r.labels[id]
	return l, ok
}

// Len returns how many ids carry a label.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.labels)
}

// Counts returns label -> member count, freshly allocated.
func (r *Registry) Counts() map[string]int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]int, len(r.labels))
	for _, l := range r.labels {
		out[l]++
	}
	return out
}

// Assignments returns a copy of the full id -> label table.
func (r *Registry) Assignments() map[int]string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[int]string, len(r.labels))
	for id, l := range r.labels {
		out[id] = l
	}
	return out
}

// Path returns the backing file ("" for an in-memory registry).
func (r *Registry) Path() string { return r.path }

// encodeLabels produces the canonical (ascending-id) file image.
func encodeLabels(labels map[int]string) []byte {
	ids := make([]int, 0, len(labels))
	for id := range labels {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var buf bytes.Buffer
	var scratch [binary.MaxVarintLen64]byte
	buf.WriteString(labelsMagic)
	buf.WriteByte(labelsVersion)
	buf.Write(scratch[:binary.PutUvarint(scratch[:], uint64(len(ids)))])
	for _, id := range ids {
		buf.Write(scratch[:binary.PutUvarint(scratch[:], uint64(id))])
		label := labels[id]
		buf.Write(scratch[:binary.PutUvarint(scratch[:], uint64(len(label)))])
		buf.WriteString(label)
	}
	binary.LittleEndian.PutUint32(scratch[:4], crc32.Checksum(buf.Bytes(), labelsCRCTable))
	buf.Write(scratch[:4])
	return buf.Bytes()
}

// decodeLabels parses and verifies a labels file image.
func decodeLabels(data []byte) (map[int]string, error) {
	if len(data) < len(labelsMagic)+1+4 {
		return nil, fmt.Errorf("classify: labels file truncated (%d bytes)", len(data))
	}
	payload, stored := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.Checksum(payload, labelsCRCTable); got != stored {
		return nil, fmt.Errorf("classify: labels file crc mismatch: stored %08x, computed %08x", stored, got)
	}
	if string(payload[:len(labelsMagic)]) != labelsMagic {
		return nil, fmt.Errorf("classify: bad labels magic %q", payload[:len(labelsMagic)])
	}
	if v := payload[len(labelsMagic)]; v != labelsVersion {
		return nil, fmt.Errorf("classify: unsupported labels version %d", v)
	}
	br := bytes.NewReader(payload[len(labelsMagic)+1:])
	count, err := binary.ReadUvarint(br)
	if err != nil || count > maxLabelEntries {
		return nil, fmt.Errorf("classify: labels count invalid")
	}
	// Each entry occupies at least 3 bytes (id, length, one label byte), so
	// a count larger than the remaining payload can never be satisfied —
	// refuse it before it sizes the map, keeping the allocation bounded by
	// the actual file size rather than a crafted count field.
	if count > uint64(br.Len())/3 {
		return nil, fmt.Errorf("classify: labels count %d exceeds what %d payload bytes can hold", count, br.Len())
	}
	labels := make(map[int]string, count)
	prev := -1
	for i := uint64(0); i < count; i++ {
		id, err := binary.ReadUvarint(br)
		if err != nil || id > uint64(maxInt) {
			return nil, fmt.Errorf("classify: labels entry %d: bad id", i)
		}
		if int(id) <= prev {
			return nil, fmt.Errorf("classify: labels entry %d: id %d out of order", i, id)
		}
		prev = int(id)
		n, err := binary.ReadUvarint(br)
		if err != nil || n == 0 || n > MaxLabelLen {
			return nil, fmt.Errorf("classify: labels entry %d: bad length", i)
		}
		label := make([]byte, n)
		if _, err := io.ReadFull(br, label); err != nil {
			return nil, fmt.Errorf("classify: labels entry %d: short label", i)
		}
		if err := ValidLabel(string(label)); err != nil {
			return nil, fmt.Errorf("classify: labels entry %d: %w", i, err)
		}
		labels[int(id)] = string(label)
	}
	if br.Len() != 0 {
		return nil, fmt.Errorf("classify: labels file has %d trailing bytes", br.Len())
	}
	return labels, nil
}

const maxInt = int(^uint(0) >> 1)
