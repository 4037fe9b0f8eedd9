package snapshot

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"snmatch/internal/fault"
)

// Mapping is a gallery snapshot whose large payloads alias a read-only
// memory mapping of the file: Snap.Gallery's descriptor matrices,
// histogram bins and image planes point straight into the page cache,
// so Map costs O(structure) time and no descriptor-byte copies (see
// v2.go for what Map verifies).
//
// The gallery is only valid while the mapping is. Lifetime is
// reference-counted: Map returns the handle holding one reference;
// Retain/Release bracket every additional user (the serving layer
// retains per in-flight request, so a gallery replaced under traffic is
// unmapped only after the last request classifying on it answers), and Close
// drops the creator's reference. When the count reaches zero the file
// is unmapped and any later touch of the gallery's mapped storage is a
// use-after-unmap bug, so nothing may recycle or retain a mapped set's
// matrix past its Release.
type Mapping struct {
	Snap *Snapshot

	data   []byte
	mapped bool // data must be munmapped (false on the heap fallback)
	size   int
	refs   atomic.Int64
}

// Map opens, maps and decodes the v2 snapshot at path with zero copies
// of the packed descriptor payloads. v1 files cannot be mapped — their
// payload is a serial stream with nothing to alias — and return
// ErrVersion; load those with Load.
func Map(path string) (*Mapping, error) {
	if err := fault.Check(fault.SnapshotRead); err != nil {
		return nil, fmt.Errorf("snapshot: map: %w", err)
	}
	loadMetrics()
	start := time.Now()
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: map: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("snapshot: map: %w", err)
	}
	if st.Size() > int64(^uint(0)>>1) {
		return nil, fmt.Errorf("snapshot: map: %d bytes exceeds the address space", st.Size())
	}
	data, mapped, err := mapFile(f, int(st.Size()))
	if err != nil {
		return nil, err
	}
	if len(data) >= 12 && [8]byte(data[:8]) == magic {
		if v := binary.LittleEndian.Uint32(data[8:12]); v == VersionV1 {
			if mapped {
				unmapMem(data)
			}
			return nil, fmt.Errorf("%w: v1 snapshots cannot be memory-mapped; use Load (or re-save with the current writer)", ErrVersion)
		}
	}
	// A true mapping skips the blob CRC (checksumming would fault in
	// every page and void the O(structure) boot); the heap-read
	// fallback has already paid the O(bytes) read, so there the check
	// is free and Map keeps Load's full integrity.
	snap, err := readV2(data, !mapped)
	if err != nil {
		if mapped {
			unmapMem(data)
		}
		return nil, err
	}
	m := &Mapping{Snap: snap, data: data, mapped: mapped, size: len(data)}
	m.refs.Store(1)
	liveMapRefs.Add(1)
	if mapped {
		recordLoad(loadObs.mapped, start)
	} else {
		recordLoad(loadObs.mapHeap, start)
	}
	return m, nil
}

// Retain adds a reference. It must pair with exactly one Release and
// may only be called while at least one reference is still held.
func (m *Mapping) Retain() {
	if m.refs.Add(1) <= 1 {
		panic("snapshot: Mapping.Retain after the final Release")
	}
	liveMapRefs.Add(1)
}

// Release drops one reference; the last drop unmaps the file, after
// which the mapped gallery must not be touched again.
func (m *Mapping) Release() {
	n := m.refs.Add(-1)
	liveMapRefs.Add(-1)
	switch {
	case n < 0:
		panic("snapshot: Mapping.Release without a matching reference")
	case n == 0:
		data := m.data
		m.data = nil
		if m.mapped {
			unmapMem(data)
		}
	}
}

// Close drops the creator's reference (the one Map returned holding).
// The mapping stays alive until every Retain has been Released; Close
// itself must be called exactly once. The error is always nil and
// exists to satisfy io.Closer.
func (m *Mapping) Close() error {
	m.Release()
	return nil
}

// Refs reports the current reference count — diagnostics for tests and
// operators; 0 means the file has been unmapped.
func (m *Mapping) Refs() int { return int(m.refs.Load()) }

// Size returns the mapped file's size in bytes.
func (m *Mapping) Size() int { return m.size }
