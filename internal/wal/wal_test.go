package wal

import (
	"compress/gzip"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"nevermind/internal/data"
)

// testRecord builds a deterministic record for version v, alternating test
// and ticket batches so both codecs are exercised.
func testRecord(v uint64) *Record {
	if v%3 == 0 {
		return &Record{
			Version: v,
			Op:      OpTickets,
			Tickets: []data.Ticket{
				{ID: int(v*10 + 1), Line: data.LineID(v % 500), Day: int(v % data.DaysInYear), Category: data.TicketCategory(v % uint64(data.CatOther+1))},
				{ID: int(v*10 + 2), Line: data.LineID((v + 7) % 500), Day: int((v + 3) % data.DaysInYear), Category: 0},
			},
		}
	}
	nf := int(v % (data.NumBasicFeatures + 1))
	var f []float32
	if nf > 0 {
		f = make([]float32, nf)
		for i := range f {
			f[i] = float32(v)*0.25 + float32(i)
		}
	}
	return &Record{
		Version: v,
		Op:      OpTests,
		Tests: []TestRec{
			{Line: data.LineID(v % 800), Week: int(v % data.Weeks), Missing: v%5 == 0, Profile: uint8(v % uint64(len(data.Profiles))), DSLAM: int32(v % 40), Usage: float32(v) * 0.5, F: f},
		},
	}
}

func appendAll(t *testing.T, l *Log, from, to uint64) {
	t.Helper()
	for v := from; v <= to; v++ {
		if err := l.Append(testRecord(v)); err != nil {
			t.Fatalf("append v%d: %v", v, err)
		}
	}
}

func replayAll(t *testing.T, dir string, from uint64) []*Record {
	t.Helper()
	var got []*Record
	n, err := Replay(dir, from, func(r *Record) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatalf("replay from %d: %v", from, err)
	}
	if n != len(got) {
		t.Fatalf("replay reported %d applied, callback saw %d", n, len(got))
	}
	return got
}

func TestRecordRoundTrip(t *testing.T) {
	for v := uint64(1); v <= 60; v++ {
		r := testRecord(v)
		payload, err := appendRecord(nil, r)
		if err != nil {
			t.Fatalf("encode v%d: %v", v, err)
		}
		got, err := decodeRecord(payload)
		if err != nil {
			t.Fatalf("decode v%d: %v", v, err)
		}
		if !reflect.DeepEqual(r, got) {
			t.Fatalf("v%d round trip mismatch:\n  in  %+v\n  out %+v", v, r, got)
		}
	}
}

func TestAppendReplayRotation(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force many rotations.
	l, info, err := Open(dir, Options{SegmentBytes: 256, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if info.LastVersion != 0 || info.Records != 0 {
		t.Fatalf("fresh dir reported %+v", info)
	}
	appendAll(t, l, 1, 100)
	if got := l.LastVersion(); got != 100 {
		t.Fatalf("LastVersion = %d, want 100", got)
	}
	if segs := l.Segments(); len(segs) < 4 {
		t.Fatalf("expected many segments at 256-byte rotation, got %d", len(segs))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	got := replayAll(t, dir, 0)
	if len(got) != 100 {
		t.Fatalf("replayed %d records, want 100", len(got))
	}
	for i, r := range got {
		want := testRecord(uint64(i + 1))
		if !reflect.DeepEqual(r, want) {
			t.Fatalf("record %d mismatch:\n  got  %+v\n  want %+v", i, r, want)
		}
	}

	// Partial replay from mid-chain.
	if got := replayAll(t, dir, 73); len(got) != 27 || got[0].Version != 74 {
		t.Fatalf("replay from 73: %d records, first %d", len(got), got[0].Version)
	}
	// From every start point, across every segment junction, replay
	// delivers exactly from+1..100, decoded intact.
	for from := uint64(0); from <= 100; from++ {
		got := replayAll(t, dir, from)
		if len(got) != int(100-from) {
			t.Fatalf("replay from %d: %d records, want %d", from, len(got), 100-from)
		}
		for i, r := range got {
			if want := testRecord(from + uint64(i) + 1); !reflect.DeepEqual(r, want) {
				t.Fatalf("replay from %d, record %d mismatch:\n  got  %+v\n  want %+v", from, i, r, want)
			}
		}
	}
	// Replay from exactly the tail: nothing.
	if got := replayAll(t, dir, 100); len(got) != 0 {
		t.Fatalf("replay from tail returned %d records", len(got))
	}
}

func TestReopenContinuesChain(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: 512, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, 1, 20)
	l.Close()

	l2, info, err := Open(dir, Options{SegmentBytes: 512, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if info.LastVersion != 20 || info.Records != 20 || info.TruncatedBytes != 0 {
		t.Fatalf("reopen info %+v", info)
	}
	// Contiguity is enforced across the reopen.
	if err := l2.Append(testRecord(25)); err == nil {
		t.Fatal("append v25 after v20 succeeded; want contiguity error")
	}
	appendAll(t, l2, 21, 40)
	l2.Close()
	if got := replayAll(t, dir, 0); len(got) != 40 {
		t.Fatalf("replayed %d, want 40", len(got))
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: 1 << 20, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, 1, 10)
	l.Close()
	segs, _ := segNames(dir)
	if len(segs) != 1 {
		t.Fatalf("want 1 segment, got %d", len(segs))
	}
	path := filepath.Join(dir, segs[0])
	st, _ := os.Stat(path)
	// Chop the last 5 bytes: record 10's frame is torn.
	if err := os.Truncate(path, st.Size()-5); err != nil {
		t.Fatal(err)
	}

	l2, info, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if info.LastVersion != 9 || info.Records != 9 {
		t.Fatalf("after torn tail: %+v", info)
	}
	if info.TruncatedBytes == 0 {
		t.Fatal("TruncatedBytes not reported")
	}
	// The log must accept v10 again (re-ingest after crash).
	appendAll(t, l2, 10, 12)
	l2.Close()
	if got := replayAll(t, dir, 0); len(got) != 12 || got[11].Version != 12 {
		t.Fatalf("post-repair replay: %d records", len(got))
	}
}

func TestGarbageAppendTruncated(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, 1, 5)
	l.Close()
	segs, _ := segNames(dir)
	f, err := os.OpenFile(filepath.Join(dir, segs[0]), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("this is not a wal frame at all, just noise past the tail"))
	f.Close()

	_, info, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if info.LastVersion != 5 || info.Records != 5 || info.TruncatedBytes == 0 {
		t.Fatalf("garbage tail: %+v", info)
	}
}

// TestBitFlipEndsChain corrupts one frame in the middle segment, either by
// flipping a payload byte (the CRC no longer matches) or by moving its
// version out of sequence under a recomputed CRC. Either way the frame ends
// the readable chain: for Replay whatever the start point, including start
// points past the frame, where it is only walked past rather than decoded,
// and for Open's repair.
func TestBitFlipEndsChain(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(t *testing.T, seg []byte)
	}{
		{"crc", func(_ *testing.T, b []byte) { b[len(b)/2] ^= 0x40 }},
		{"out-of-sequence", func(t *testing.T, b []byte) {
			hdr, payload := frameAt(t, b, len(b)/2)
			binary.LittleEndian.PutUint64(payload, binary.LittleEndian.Uint64(payload)+5)
			binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, crcTable))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, _, err := Open(dir, Options{SegmentBytes: 300, Sync: SyncNever})
			if err != nil {
				t.Fatal(err)
			}
			appendAll(t, l, 1, 50)
			l.Close()
			segs, _ := segNames(dir)
			if len(segs) < 3 {
				t.Fatalf("need ≥3 segments, got %d", len(segs))
			}
			// Corrupt one frame in the middle segment: its tail and every
			// later segment become unreachable.
			mid := filepath.Join(dir, segs[len(segs)/2])
			b, _ := os.ReadFile(mid)
			tc.corrupt(t, b)
			if err := os.WriteFile(mid, b, 0o644); err != nil {
				t.Fatal(err)
			}

			// Before repair, Replay from every start point stops where the
			// read-only, fully decoding Inspect says the chain ends.
			ds, err := Inspect(dir)
			if err != nil {
				t.Fatal(err)
			}
			last := ds.LastVersion
			if last == 0 || last >= 50 {
				t.Fatalf("Inspect LastVersion = %d, want in (0,50)", last)
			}
			for from := uint64(0); from <= 50; from++ {
				got := replayAll(t, dir, from)
				want := 0
				if from < last {
					want = int(last - from)
				}
				if len(got) != want || want > 0 && (got[0].Version != from+1 || got[want-1].Version != last) {
					t.Fatalf("replay from %d over a chain ending at %d: %d records", from, last, len(got))
				}
			}

			l2, info, err := Open(dir, Options{SegmentBytes: 300, Sync: SyncNever})
			if err != nil {
				t.Fatal(err)
			}
			if info.LastVersion == 0 || info.LastVersion >= 50 {
				t.Fatalf("bit flip: LastVersion = %d, want in (0,50)", info.LastVersion)
			}
			if info.DroppedSegments == 0 {
				t.Fatal("expected later segments dropped")
			}
			// Replay agrees with repair, and the chain continues from there.
			got := replayAll(t, dir, 0)
			if uint64(len(got)) != info.LastVersion {
				t.Fatalf("replay %d records, repair says %d", len(got), info.LastVersion)
			}
			appendAll(t, l2, info.LastVersion+1, 60)
			l2.Close()
			if got := replayAll(t, dir, 0); got[len(got)-1].Version != 60 {
				t.Fatalf("chain tail %d after re-append", got[len(got)-1].Version)
			}
		})
	}
}

// frameAt returns the frame header and payload of the record frame in
// segment bytes b that contains offset off.
func frameAt(t *testing.T, b []byte, off int) (hdr, payload []byte) {
	t.Helper()
	for pos := segHdrLen; pos+frameLen <= len(b); {
		end := pos + frameLen + int(binary.LittleEndian.Uint32(b[pos:]))
		if off < end {
			return b[pos : pos+frameLen], b[pos+frameLen : end]
		}
		pos = end
	}
	t.Fatalf("offset %d is past the last frame", off)
	return nil, nil
}

func TestReplayGapRejected(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	// Chain starts at 10 (log opened after a checkpoint at 9).
	appendAll(t, l, 10, 15)
	l.Close()
	// Asking for records past version 5 would need 6..9, which don't exist.
	if _, err := Replay(dir, 5, func(*Record) error { return nil }); err == nil {
		t.Fatal("replay across a junction gap succeeded; want error")
	}
	// From 9 the chain is contiguous.
	if got := replayAll(t, dir, 9); len(got) != 6 {
		t.Fatalf("replay from 9: %d records, want 6", len(got))
	}
}

func TestResetAndTruncateThrough(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: 300, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, 1, 40)
	nseg := len(l.Segments())
	if nseg < 3 {
		t.Fatalf("need ≥3 segments, got %d", nseg)
	}
	// Truncate through v of the first segment's tail: first segment goes.
	v := l.Segments()[0].LastVersion
	n, err := l.TruncateThrough(v)
	if err != nil || n != 1 {
		t.Fatalf("TruncateThrough(%d) = %d, %v", v, n, err)
	}
	// Replay from v still works (chain now starts at v+1).
	if got := replayAll(t, dir, v); got[0].Version != v+1 {
		t.Fatalf("post-truncate replay starts at %d", got[0].Version)
	}

	// Reset wipes everything and pins the next version.
	if err := l.Reset(99); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testRecord(50)); err == nil {
		t.Fatal("append v50 after Reset(99) succeeded")
	}
	appendAll(t, l, 100, 105)
	l.Close()
	if got := replayAll(t, dir, 99); len(got) != 6 || got[0].Version != 100 {
		t.Fatalf("post-reset replay: %d records from %d", len(got), got[0].Version)
	}
}

func TestCheckpointRoundTripAndFallback(t *testing.T) {
	dir := t.TempDir()
	type state struct {
		Name  string
		Vals  []int
		Table map[string]float64
	}
	for v := uint64(10); v <= 30; v += 10 {
		s := state{Name: fmt.Sprintf("ckpt-%d", v), Vals: []int{int(v), int(v * 2)}, Table: map[string]float64{"x": float64(v)}}
		if err := WriteCheckpoint(dir, v, &s); err != nil {
			t.Fatal(err)
		}
	}
	cks, err := Checkpoints(dir)
	if err != nil || len(cks) != 3 {
		t.Fatalf("Checkpoints: %d, %v", len(cks), err)
	}
	var got state
	v, err := LoadCheckpoint(cks[2].Path, &got)
	if err != nil || v != 30 || got.Name != "ckpt-30" {
		t.Fatalf("load newest: v=%d err=%v state=%+v", v, err, got)
	}

	// Corrupt the newest: recovery must fall back to v20.
	b, _ := os.ReadFile(cks[2].Path)
	b[len(b)/2] ^= 0xff
	os.WriteFile(cks[2].Path, b, 0o644)
	if _, err := LoadCheckpoint(cks[2].Path, &state{}); err == nil {
		t.Fatal("corrupt checkpoint loaded cleanly")
	}
	v, err = LoadCheckpoint(cks[1].Path, &got)
	if err != nil || v != 20 {
		t.Fatalf("fallback load: v=%d err=%v", v, err)
	}

	// Prune keeps the newest two (including the corrupt one — pruning is
	// name-based; validity is recovery's concern).
	kept, err := PruneCheckpoints(dir, 2)
	if err != nil || len(kept) != 2 || kept[0].Version != 20 {
		t.Fatalf("prune: %+v, %v", kept, err)
	}

	// WriteCheckpoint compresses at BestSpeed (gzip XFL byte 4), and a
	// checkpoint compressed at another level — gzip's default, which older
	// builds wrote — loads all the same.
	if b, _ := os.ReadFile(kept[0].Path); len(b) < 10 || b[8] != 4 {
		t.Fatalf("checkpoint gzip header %x: want XFL 4 (BestSpeed)", b[:min(len(b), 10)])
	}
	f, err := os.Create(filepath.Join(dir, ckptName(40)))
	if err != nil {
		t.Fatal(err)
	}
	zw, _ := gzip.NewWriterLevel(f, gzip.DefaultCompression)
	enc := gob.NewEncoder(zw)
	if err := enc.Encode(ckptHeader{Magic: ckptMagic, Format: ckptFormat, Version: 40}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(&state{Name: "ckpt-40", Vals: []int{40, 80}}); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	v, err = LoadCheckpoint(filepath.Join(dir, ckptName(40)), &got)
	if err != nil || v != 40 || got.Name != "ckpt-40" {
		t.Fatalf("default-level checkpoint: v=%d err=%v state=%+v", v, err, got)
	}
}

func TestCheckpointTruncatedFileRejected(t *testing.T) {
	dir := t.TempDir()
	big := make([]int, 100000)
	for i := range big {
		big[i] = i
	}
	if err := WriteCheckpoint(dir, 7, &big); err != nil {
		t.Fatal(err)
	}
	cks, _ := Checkpoints(dir)
	b, _ := os.ReadFile(cks[0].Path)
	os.WriteFile(cks[0].Path, b[:len(b)-10], 0o644)
	var got []int
	if _, err := LoadCheckpoint(cks[0].Path, &got); err == nil {
		t.Fatal("truncated checkpoint loaded cleanly")
	}
}

func TestInspectMatchesRepair(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: 300, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, 1, 30)
	l.Close()
	// Tear the final segment.
	segs, _ := segNames(dir)
	last := filepath.Join(dir, segs[len(segs)-1])
	st, _ := os.Stat(last)
	os.Truncate(last, st.Size()-3)

	ds, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ds.FirstVersion != 1 {
		t.Fatalf("Inspect FirstVersion = %d", ds.FirstVersion)
	}
	tornSeen := false
	for _, s := range ds.Segments {
		if s.TornBytes > 0 {
			tornSeen = true
		}
	}
	if !tornSeen {
		t.Fatal("Inspect missed the torn tail")
	}
	// Inspect is read-only: repair afterwards must agree with its count.
	_, info, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if info.LastVersion != ds.LastVersion || info.Records != ds.Records {
		t.Fatalf("Inspect (v%d, %d recs) disagrees with repair (v%d, %d recs)",
			ds.LastVersion, ds.Records, info.LastVersion, info.Records)
	}
}

func TestSyncAlwaysAndObserver(t *testing.T) {
	dir := t.TempDir()
	syncs := 0
	l, _, err := Open(dir, Options{Sync: SyncAlways, FsyncObserver: func(time.Duration) { syncs++ }})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, 1, 5)
	if syncs < 5 {
		t.Fatalf("SyncAlways observed %d fsyncs for 5 appends", syncs)
	}
	l.Close()
}

func TestBrokenLogFreezes(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, 1, 3)
	// Yank the file out from under the log: the next synced append fails
	// and every append after that returns the same sticky error.
	l.mu.Lock()
	l.f.Close()
	l.mu.Unlock()
	var firstErr error
	for v := uint64(4); v <= 6; v++ {
		if err := l.Append(testRecord(v)); err != nil {
			firstErr = err
			break
		}
	}
	if firstErr == nil {
		t.Skip("writes to closed file did not fail on this platform")
	}
	if err := l.Append(testRecord(7)); err == nil {
		t.Fatal("append after freeze succeeded")
	}
	if l.Err() == nil {
		t.Fatal("Err() nil on frozen log")
	}
	l.Abort()
}
