package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"path/filepath"
	"reflect"
	"testing"

	"snmatch/internal/dataset"
	"snmatch/internal/pipeline"
)

// prepared builds a small but fully prepared gallery: every descriptor
// family extracted and indexed, so a snapshot covers float (SIFT/SURF)
// and binary (ORB) blocks plus all three flat indexes.
func prepared(t testing.TB) *pipeline.Gallery {
	t.Helper()
	g := pipeline.NewGallery(dataset.BuildSNS1(dataset.Config{Size: 40, Seed: 2}))
	params := pipeline.DefaultDescriptorParams()
	for _, k := range []pipeline.DescriptorKind{pipeline.SIFT, pipeline.SURF, pipeline.ORB} {
		g.PrepareDescriptors(k, params)
	}
	return g
}

func roundTrip(t *testing.T, g *pipeline.Gallery, name string) (*Snapshot, *pipeline.Gallery) {
	t.Helper()
	var buf bytes.Buffer
	in := &Snapshot{Name: name, Meta: Meta{Dataset: "sns1", Size: 40, Seed: 2}, Gallery: g}
	if err := Write(&buf, in); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	return got, got.Gallery
}

// TestRoundTripExact pins the codec's core contract: every persisted
// field — samples, images, Hu moments, histograms, keypoints, packed
// descriptor blocks and index storage — survives a save/load cycle bit
// for bit.
func TestRoundTripExact(t *testing.T) {
	g := prepared(t)
	snap, got := roundTrip(t, g, "sns1-fixture")
	if snap.Name != "sns1-fixture" {
		t.Fatalf("name %q round-tripped as %q", "sns1-fixture", snap.Name)
	}
	if snap.Meta != (Meta{Dataset: "sns1", Size: 40, Seed: 2}) {
		t.Fatalf("meta round-tripped as %+v", snap.Meta)
	}
	if got.Len() != g.Len() {
		t.Fatalf("view count %d != %d", got.Len(), g.Len())
	}
	for i := range g.Views {
		a, b := &g.Views[i], &got.Views[i]
		if a.Sample.Class != b.Sample.Class || a.Sample.Model != b.Sample.Model || a.Sample.View != b.Sample.View {
			t.Fatalf("view %d: sample metadata mismatch", i)
		}
		if a.Sample.Image.W != b.Sample.Image.W || a.Sample.Image.H != b.Sample.Image.H ||
			!bytes.Equal(a.Sample.Image.Pix, b.Sample.Image.Pix) {
			t.Fatalf("view %d: image bytes differ", i)
		}
		if a.Hu != b.Hu {
			t.Fatalf("view %d: Hu moments differ", i)
		}
		if a.Hist.Bins != b.Hist.Bins || !reflect.DeepEqual(a.Hist.Counts, b.Hist.Counts) {
			t.Fatalf("view %d: histogram differs", i)
		}
		for _, k := range []pipeline.DescriptorKind{pipeline.SIFT, pipeline.SURF, pipeline.ORB} {
			sa, sb := a.Desc[k], b.Desc[k]
			if (sa == nil) != (sb == nil) {
				t.Fatalf("view %d %s: presence mismatch", i, k)
			}
			if sa == nil {
				continue
			}
			if !reflect.DeepEqual(sa.Keypoints, sb.Keypoints) {
				t.Fatalf("view %d %s: keypoints differ", i, k)
			}
			if sa.Binary != sb.Binary || sa.Dim != sb.Dim || sa.RowBytes != sb.RowBytes || sa.WordsPerRow != sb.WordsPerRow ||
				!reflect.DeepEqual(sa.Floats, sb.Floats) ||
				!reflect.DeepEqual(sa.Words, sb.Words) {
				t.Fatalf("view %d %s: descriptor matrix differs", i, k)
			}
		}
	}
	want, gotIdx := g.Indexes(), got.Indexes()
	if len(want) != len(gotIdx) {
		t.Fatalf("index kinds %d != %d", len(gotIdx), len(want))
	}
	for k, ix := range want {
		re := gotIdx[k]
		if re == nil {
			t.Fatalf("%s index missing after load", k)
		}
		// The index is rebuilt on load; its exported storage must be
		// bit-identical to the saved gallery's.
		if re.Binary != ix.Binary || re.NumViews != ix.NumViews || re.Dim != ix.Dim ||
			re.WordsPerRow != ix.WordsPerRow ||
			!reflect.DeepEqual(re.Starts, ix.Starts) ||
			!reflect.DeepEqual(re.Floats, ix.Floats) ||
			!reflect.DeepEqual(re.Words, ix.Words) {
			t.Fatalf("%s index differs after load", k)
		}
	}
}

// TestRoundTripClassifyExact is the acceptance-criteria cycle: a
// save→load→classify run reproduces the exact predictions of the
// freshly prepared gallery, across descriptor, hybrid and shape/colour
// pipelines, and loading performs no re-extraction (the index arrives
// prebuilt).
func TestRoundTripClassifyExact(t *testing.T) {
	g := prepared(t)
	_, loaded := roundTrip(t, g, "g")
	for _, k := range []pipeline.DescriptorKind{pipeline.SIFT, pipeline.SURF, pipeline.ORB} {
		if nd, nv := loaded.IndexStats(k); nd == 0 && nv == 0 {
			t.Fatalf("%s index not restored (would re-extract)", k)
		}
	}
	queries := dataset.BuildSNS2(dataset.Config{Size: 40, Seed: 2}).Samples[:8]
	pipes := []pipeline.Pipeline{
		pipeline.NewDescriptor(pipeline.SIFT, 0.5),
		pipeline.NewDescriptor(pipeline.SURF, 0.5),
		pipeline.NewDescriptor(pipeline.ORB, 0.5),
		pipeline.DefaultHybrid(pipeline.WeightedSum),
	}
	for _, p := range pipes {
		for qi, q := range queries {
			want := p.Classify(q.Image, g)
			got := p.Classify(q.Image, loaded)
			if got != want {
				t.Fatalf("%s query %d: loaded gallery predicted %+v, fresh %+v", p.Name(), qi, got, want)
			}
		}
	}
}

// TestSaveLoadFile exercises the atomic file path.
func TestSaveLoadFile(t *testing.T) {
	g := prepared(t)
	path := filepath.Join(t.TempDir(), "g.snap")
	if err := Save(path, &Snapshot{Name: "disk", Meta: Meta{Dataset: "sns1", Size: 40, Seed: 2}, Gallery: g}); err != nil {
		t.Fatalf("Save: %v", err)
	}
	snap, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if snap.Name != "disk" || snap.Gallery.Len() != g.Len() {
		t.Fatalf("Load returned name %q, %d views", snap.Name, snap.Gallery.Len())
	}
	if err := snap.Meta.Check(Meta{Dataset: "sns1", Size: 40, Seed: 2}); err != nil {
		t.Fatalf("matching provenance rejected: %v", err)
	}
	if err := snap.Meta.Check(Meta{Dataset: "sns2", Size: 40, Seed: 2}); err == nil {
		t.Fatal("dataset mismatch accepted")
	}
	if err := snap.Meta.Check(Meta{Dataset: "sns1", Size: 64, Seed: 2}); err == nil {
		t.Fatal("size mismatch accepted")
	}
	if err := snap.Meta.Check(Meta{Dataset: "sns1", Size: 40, Seed: 9}); err == nil {
		t.Fatal("seed mismatch accepted")
	}
	// Zero is a legal seed, not a skip sentinel.
	if err := snap.Meta.Check(Meta{Dataset: "sns1", Size: 40, Seed: 0}); err == nil {
		t.Fatal("seed 0 expectation matched a seed-2 snapshot")
	}
}

// snapshotBytes returns a small valid (v2) snapshot to corrupt.
func snapshotBytes(t *testing.T) []byte { return snapshotBytesWith(t, Write) }

// snapshotBytesV1 is snapshotBytes in the legacy format.
func snapshotBytesV1(t *testing.T) []byte { return snapshotBytesWith(t, WriteV1) }

func snapshotBytesWith(t *testing.T, write func(io.Writer, *Snapshot) error) []byte {
	t.Helper()
	g := pipeline.NewGallery(dataset.BuildSNS1(dataset.Config{Size: 24, Seed: 4}))
	g.PrepareDescriptors(pipeline.ORB, pipeline.DefaultDescriptorParams())
	var buf bytes.Buffer
	if err := write(&buf, &Snapshot{Name: "x", Gallery: g}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestBadMagic(t *testing.T) {
	raw := snapshotBytes(t)
	raw[0] ^= 0xFF
	if _, err := Read(bytes.NewReader(raw)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("corrupted magic: got %v, want ErrBadMagic", err)
	}
}

func TestVersionMismatch(t *testing.T) {
	raw := snapshotBytes(t)
	raw[8] = 99 // version field, little-endian low byte
	if _, err := Read(bytes.NewReader(raw)); !errors.Is(err, ErrVersion) {
		t.Fatalf("future version: got %v, want ErrVersion", err)
	}
}

func TestCorruptPayload(t *testing.T) {
	raw := snapshotBytes(t)
	raw[len(raw)/2] ^= 0x55
	if _, err := Read(bytes.NewReader(raw)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped payload byte: got %v, want ErrCorrupt", err)
	}
}

// TestIndexKindWithoutDescriptors rewrites a valid snapshot's recorded
// index-kind list (ORB -> SIFT, with a fixed-up checksum) and checks the
// loader refuses to rebuild an index whose descriptor sets were never
// stored, instead of handing out a gallery that would crash at query
// time — in both format versions.
func TestIndexKindWithoutDescriptors(t *testing.T) {
	t.Run("v1", func(t *testing.T) {
		raw := snapshotBytesV1(t) // ORB is the only prepared kind
		kindOff := len(raw) - 5   // ... [count u8][kind u8][crc32]
		if raw[kindOff-1] != 1 || raw[kindOff] != uint8(pipeline.ORB) {
			t.Fatalf("fixture layout changed: tail bytes % x", raw[len(raw)-8:])
		}
		raw[kindOff] = uint8(pipeline.SIFT)
		sum := crc32.ChecksumIEEE(raw[12 : len(raw)-4])
		binary.LittleEndian.PutUint32(raw[len(raw)-4:], sum)
		if _, err := Read(bytes.NewReader(raw)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("index kind without stored descriptors: got %v, want ErrCorrupt", err)
		}
	})
	t.Run("v2", func(t *testing.T) {
		raw := snapshotBytes(t) // v2: the kind list ends the structure stream
		structLen := int(binary.LittleEndian.Uint64(raw[offStructLen:]))
		kindOff := headerLenV2 + structLen - 1
		if raw[kindOff-1] != 1 || raw[kindOff] != uint8(pipeline.ORB) {
			t.Fatalf("fixture layout changed: structure tail % x", raw[kindOff-1:kindOff+1])
		}
		raw[kindOff] = uint8(pipeline.SIFT)
		sum := crc32.ChecksumIEEE(raw[headerLenV2 : headerLenV2+structLen])
		binary.LittleEndian.PutUint32(raw[offStructCRC:], sum)
		if _, err := Read(bytes.NewReader(raw)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("index kind without stored descriptors: got %v, want ErrCorrupt", err)
		}
	})
}

func TestTruncated(t *testing.T) {
	raw := snapshotBytes(t)
	for _, n := range []int{0, 7, 11, 15, len(raw) - 5} {
		if _, err := Read(bytes.NewReader(raw[:n])); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", n)
		}
	}
}
