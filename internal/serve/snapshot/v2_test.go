package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"unsafe"

	"snmatch/internal/dataset"
	"snmatch/internal/pipeline"
)

// saveV2 writes a prepared fixture to disk and returns its path.
func saveV2(t *testing.T, g *pipeline.Gallery) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.snap")
	if err := Save(path, &Snapshot{Name: "v2", Meta: Meta{Dataset: "sns1", Size: 40, Seed: 2}, Gallery: g}); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return path
}

// galleriesEqual pins field-for-field equality of two restored
// galleries (samples, images, Hu, histograms, keypoints, packed
// blocks), regardless of which codec produced them.
func galleriesEqual(t *testing.T, label string, a, b *pipeline.Gallery) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s: view count %d != %d", label, a.Len(), b.Len())
	}
	for i := range a.Views {
		va, vb := &a.Views[i], &b.Views[i]
		if va.Sample.Class != vb.Sample.Class || va.Sample.Model != vb.Sample.Model || va.Sample.View != vb.Sample.View {
			t.Fatalf("%s view %d: sample metadata mismatch", label, i)
		}
		if (va.Sample.Image == nil) != (vb.Sample.Image == nil) {
			t.Fatalf("%s view %d: image presence mismatch", label, i)
		}
		if va.Sample.Image != nil && (va.Sample.Image.W != vb.Sample.Image.W ||
			va.Sample.Image.H != vb.Sample.Image.H || !bytes.Equal(va.Sample.Image.Pix, vb.Sample.Image.Pix)) {
			t.Fatalf("%s view %d: image differs", label, i)
		}
		if va.Hu != vb.Hu {
			t.Fatalf("%s view %d: Hu differs", label, i)
		}
		if (va.Hist == nil) != (vb.Hist == nil) {
			t.Fatalf("%s view %d: hist presence mismatch", label, i)
		}
		if va.Hist != nil && (va.Hist.Bins != vb.Hist.Bins || !reflect.DeepEqual(va.Hist.Counts, vb.Hist.Counts)) {
			t.Fatalf("%s view %d: hist differs", label, i)
		}
		for _, k := range []pipeline.DescriptorKind{pipeline.SIFT, pipeline.SURF, pipeline.ORB} {
			sa, sb := va.Desc[k], vb.Desc[k]
			if (sa == nil) != (sb == nil) {
				t.Fatalf("%s view %d %s: presence mismatch", label, i, k)
			}
			if sa == nil {
				continue
			}
			if !reflect.DeepEqual(sa.Keypoints, sb.Keypoints) {
				t.Fatalf("%s view %d %s: keypoints differ", label, i, k)
			}
			if sa.Binary != sb.Binary || sa.Dim != sb.Dim || sa.RowBytes != sb.RowBytes || sa.WordsPerRow != sb.WordsPerRow ||
				!reflect.DeepEqual(sa.Floats, sb.Floats) ||
				!reflect.DeepEqual(sa.Words, sb.Words) {
				t.Fatalf("%s view %d %s: descriptor matrix differs", label, i, k)
			}
		}
	}
}

// TestV1V2Compat pins cross-version compatibility: the same gallery
// written in both formats restores identically through Read, so v1
// fixtures keep loading next to v2 ones.
func TestV1V2Compat(t *testing.T) {
	g := prepared(t)
	snap := &Snapshot{Name: "x", Meta: Meta{Dataset: "sns1", Size: 40, Seed: 2}, Gallery: g}
	var b1, b2 bytes.Buffer
	if err := WriteV1(&b1, snap); err != nil {
		t.Fatalf("WriteV1: %v", err)
	}
	if err := Write(&b2, snap); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if v := binary.LittleEndian.Uint32(b1.Bytes()[8:12]); v != VersionV1 {
		t.Fatalf("WriteV1 stamped version %d", v)
	}
	if v := binary.LittleEndian.Uint32(b2.Bytes()[8:12]); v != Version {
		t.Fatalf("Write stamped version %d", v)
	}
	s1, err := Read(bytes.NewReader(b1.Bytes()))
	if err != nil {
		t.Fatalf("Read v1: %v", err)
	}
	s2, err := Read(bytes.NewReader(b2.Bytes()))
	if err != nil {
		t.Fatalf("Read v2: %v", err)
	}
	if s1.Name != s2.Name || s1.Meta != s2.Meta {
		t.Fatalf("header mismatch: v1 %+v/%+v, v2 %+v/%+v", s1.Name, s1.Meta, s2.Name, s2.Meta)
	}
	galleriesEqual(t, "v1-vs-v2", s1.Gallery, s2.Gallery)
}

// TestMapRefusesV1 pins the version gate from the other side: a v1
// file has nothing to alias, so Map must refuse it with ErrVersion
// (and a v1-only reader refuses v2 files the same way — the shared
// version field is what both gates key on).
func TestMapRefusesV1(t *testing.T) {
	g := prepared(t)
	path := filepath.Join(t.TempDir(), "v1.snap")
	if err := SaveV1(path, &Snapshot{Name: "v1", Meta: Meta{Dataset: "sns1", Size: 40, Seed: 2}, Gallery: g}); err != nil {
		t.Fatalf("SaveV1: %v", err)
	}
	if _, err := Map(path); !errors.Is(err, ErrVersion) {
		t.Fatalf("Map(v1): got %v, want ErrVersion", err)
	}
	// The heap loader still takes it.
	if _, err := Load(path); err != nil {
		t.Fatalf("Load(v1): %v", err)
	}
}

// inMapping reports whether the slice's storage lies inside the
// mapping's byte range.
func inMapping[T any](m *Mapping, s []T) bool {
	if len(s) == 0 {
		return true
	}
	base := uintptr(unsafe.Pointer(&m.data[0]))
	p := uintptr(unsafe.Pointer(&s[0]))
	return p >= base && p+unsafe.Sizeof(s[0])*uintptr(len(s)) <= base+uintptr(len(m.data))
}

// TestMapZeroCopy checks that a mapped gallery's keypoints, image
// planes, histogram bins and rebuilt flat indexes' scan storage point
// into the mapping itself; TestMapDescriptorRowsAliasMapping covers the
// sets' descriptor matrices.
func TestMapZeroCopy(t *testing.T) {
	g := prepared(t)
	m, err := Map(saveV2(t, g))
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	defer m.Close()
	lg := m.Snap.Gallery
	checked := 0
	for i := range lg.Views {
		for k, s := range lg.Views[i].Desc {
			if keypointLayoutMatches && !inMapping(m, s.Keypoints) {
				t.Fatalf("view %d %s: keypoints were copied off the mapping", i, k)
			}
			if s.Len() > 0 {
				checked++
			}
			if img := lg.Views[i].Sample.Image; img != nil && !inMapping(m, img.Pix) {
				t.Fatalf("view %d: image plane copied", i)
			}
			if h := lg.Views[i].Hist; h != nil && !inMapping(m, h.Counts) {
				t.Fatalf("view %d: histogram bins copied", i)
			}
		}
	}
	if checked == 0 {
		t.Fatal("fixture has no non-empty descriptor sets; alias check proved nothing")
	}
	idx := lg.Indexes()
	if len(idx) == 0 {
		t.Fatal("mapped gallery restored no indexes")
	}
	for k, ix := range idx {
		if !inMapping(m, ix.Floats) {
			t.Fatalf("%s index float storage was copied off the mapping", k)
		}
		if !inMapping(m, ix.Words) {
			t.Fatalf("%s index word storage was copied off the mapping", k)
		}
	}
}

// TestMapHeapEquivalence pins the tentpole contract end to end: a
// mapped gallery and a heap-loaded gallery produce bit-identical
// predictions for every descriptor pipeline and the hybrid, across the
// parallel classifier at workers 1, 4 and 16, and the mapped gallery's
// restored state equals the heap one field for field.
func TestMapHeapEquivalence(t *testing.T) {
	g := prepared(t)
	path := saveV2(t, g)
	heap, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	m, err := Map(path)
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	defer m.Close()
	galleriesEqual(t, "map-vs-heap", heap.Gallery, m.Snap.Gallery)

	queries := dataset.BuildSNS2(dataset.Config{Size: 40, Seed: 2})
	pipes := []pipeline.Pipeline{
		pipeline.NewDescriptor(pipeline.SIFT, 0.5),
		pipeline.NewDescriptor(pipeline.SURF, 0.5),
		pipeline.NewDescriptor(pipeline.ORB, 0.5),
		pipeline.DefaultHybrid(pipeline.WeightedSum),
	}
	for _, p := range pipes {
		for _, workers := range []int{1, 4, 16} {
			want, wantTruth := pipeline.RunParallel(p, queries, heap.Gallery, workers)
			got, gotTruth := pipeline.RunParallel(p, queries, m.Snap.Gallery, workers)
			if !reflect.DeepEqual(want, got) || !reflect.DeepEqual(wantTruth, gotTruth) {
				t.Fatalf("%s workers=%d: mapped predictions differ from heap-loaded", p.Name(), workers)
			}
		}
	}
}

// TestMappingLifecycle exercises the refcount: retains keep the data
// mapped through Close, the final release unmaps, and misuse panics.
func TestMappingLifecycle(t *testing.T) {
	m, err := Map(saveV2(t, prepared(t)))
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	if m.Refs() != 1 {
		t.Fatalf("fresh mapping holds %d refs, want 1", m.Refs())
	}
	if m.Size() == 0 {
		t.Fatal("Size reported 0")
	}
	m.Retain()
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if m.Refs() != 1 || m.data == nil {
		t.Fatalf("retained mapping released early (refs=%d, data=%v)", m.Refs(), m.data != nil)
	}
	// Still readable through the retained reference.
	if m.Snap.Gallery.Len() == 0 {
		t.Fatal("gallery unreadable while retained")
	}
	m.Release()
	if m.Refs() != 0 || m.data != nil {
		t.Fatalf("final release did not unmap (refs=%d)", m.Refs())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Release past zero did not panic")
		}
	}()
	m.Release()
}

// TestV2Corruption covers the v2 integrity gates: structure CRC (both
// loaders), blob CRC (heap loader; Map intentionally skips it), and the
// header length invariants.
func TestV2Corruption(t *testing.T) {
	g := pipeline.NewGallery(dataset.BuildSNS1(dataset.Config{Size: 24, Seed: 4}))
	g.PrepareDescriptors(pipeline.ORB, pipeline.DefaultDescriptorParams())
	snap := &Snapshot{Name: "x", Gallery: g}
	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	pristine := buf.Bytes()
	structLen := int(binary.LittleEndian.Uint64(pristine[offStructLen:]))
	blobStart := align8(headerLenV2 + structLen)

	mutate := func(f func(b []byte)) []byte {
		b := append([]byte(nil), pristine...)
		f(b)
		return b
	}
	writeTemp := func(t *testing.T, b []byte) string {
		path := filepath.Join(t.TempDir(), "c.snap")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	t.Run("struct-flip", func(t *testing.T) {
		b := mutate(func(b []byte) { b[headerLenV2+structLen/2] ^= 0x40 })
		if _, err := Read(bytes.NewReader(b)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Read: got %v, want ErrCorrupt", err)
		}
		if _, err := Map(writeTemp(t, b)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Map: got %v, want ErrCorrupt", err)
		}
	})
	t.Run("blob-flip", func(t *testing.T) {
		b := mutate(func(b []byte) { b[blobStart+(len(b)-blobStart)/2] ^= 0x40 })
		if _, err := Read(bytes.NewReader(b)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Read: got %v, want ErrCorrupt", err)
		}
		// Map trades the blob checksum for O(structure) loads — a blob
		// flip passes its header checks by design. The flipped byte sits
		// in descriptor/pixel payload, which the structure decodes around.
		m, err := Map(writeTemp(t, b))
		if err != nil {
			t.Fatalf("Map rejected a blob flip it documents skipping: %v", err)
		}
		m.Close()
	})
	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 15, headerLenV2 - 1, headerLenV2 + structLen/2, len(pristine) - 1} {
			if _, err := Read(bytes.NewReader(pristine[:n])); err == nil {
				t.Fatalf("truncation to %d bytes decoded", n)
			}
		}
	})
	t.Run("struct-len-overflow", func(t *testing.T) {
		b := mutate(func(b []byte) { binary.LittleEndian.PutUint64(b[offStructLen:], ^uint64(0)) })
		if _, err := Read(bytes.NewReader(b)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("blob-len-mismatch", func(t *testing.T) {
		b := mutate(func(b []byte) { binary.LittleEndian.PutUint64(b[offBlobLen:], 8) })
		if _, err := Read(bytes.NewReader(b)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
}

// TestMapDescriptorRowsAliasMapping pins that a mapped load copies no
// descriptor row: every set's matrix, float rows and word rows alike,
// lies inside the mapping, and the fixture has non-empty SIFT and ORB
// sets for the check to cover.
func TestMapDescriptorRowsAliasMapping(t *testing.T) {
	m, err := Map(saveV2(t, prepared(t)))
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	defer m.Close()
	checked := map[pipeline.DescriptorKind]int{}
	for i := range m.Snap.Gallery.Views {
		for k, s := range m.Snap.Gallery.Views[i].Desc {
			if !inMapping(m, s.Floats) || !inMapping(m, s.Words) {
				t.Fatalf("view %d %s: descriptor rows were copied off the mapping", i, k)
			}
			if s.Len() > 0 {
				checked[k]++
			}
		}
	}
	if checked[pipeline.SIFT] == 0 || checked[pipeline.ORB] == 0 {
		t.Fatalf("fixture has non-empty sets %v; the alias check needs SIFT and ORB rows", checked)
	}
}

func TestCRC32Stability(t *testing.T) {
	// The header field offsets are part of the on-disk format; a drive-by
	// const change must fail loudly.
	if headerLenV2 != 48 || offStructLen != 16 || offBlobLen != 24 || offStructCRC != 32 || offBlobCRC != 36 {
		t.Fatal("v2 header layout constants changed; bump the format version instead")
	}
	if crc32.ChecksumIEEE([]byte("snapshot")) == 0 {
		t.Fatal("crc sanity")
	}
}
