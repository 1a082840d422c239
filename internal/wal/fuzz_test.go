package wal

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALDecode feeds arbitrary bytes to every decoder surface as a segment
// file: Inspect, Replay, and Open (repair) must never panic, must agree on
// the length of the valid prefix, and must never hand a corrupt batch to the
// replay callback (every delivered record re-validates cleanly).
func FuzzWALDecode(f *testing.F) {
	// Seed with a healthy two-record segment plus adversarial variants:
	// truncations, bit flips at structural offsets, appended garbage.
	healthy := func() []byte {
		dir := f.TempDir()
		l, _, err := Open(dir, Options{Sync: SyncNever})
		if err != nil {
			f.Fatal(err)
		}
		for v := uint64(1); v <= 2; v++ {
			if err := l.Append(testRecord(v)); err != nil {
				f.Fatal(err)
			}
		}
		l.Close()
		names, _ := segNames(dir)
		b, err := os.ReadFile(filepath.Join(dir, names[0]))
		if err != nil {
			f.Fatal(err)
		}
		return b
	}()
	f.Add(healthy)
	f.Add(healthy[:len(healthy)-3])                           // torn final frame
	f.Add(healthy[:segHdrLen])                                // header only
	f.Add(healthy[:segHdrLen/2])                              // torn header
	f.Add(append(append([]byte{}, healthy...), "garbage"...)) // garbage tail
	for _, off := range []int{0, 8, segHdrLen, segHdrLen + 2, segHdrLen + 6, len(healthy) / 2} {
		b := append([]byte{}, healthy...)
		if off < len(b) {
			b[off] ^= 0x01
			f.Add(b)
		}
	}
	huge := append([]byte{}, healthy[:segHdrLen]...)
	huge = binary.LittleEndian.AppendUint32(huge, uint32(MaxRecordBytes)) // frame claims 64 MB
	huge = binary.LittleEndian.AppendUint32(huge, 0xdeadbeef)
	f.Add(huge)
	f.Add([]byte{})
	f.Add([]byte("NVMWAL01 but not really a segment"))

	f.Fuzz(func(t *testing.T, seg []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, segName(1))
		if err := os.WriteFile(path, seg, 0o644); err != nil {
			t.Fatal(err)
		}

		ds, err := Inspect(dir)
		if err != nil {
			t.Fatalf("Inspect errored on fuzz input: %v", err)
		}

		replayed := 0
		_, rerr := Replay(dir, 0, func(r *Record) error {
			// Every delivered record must survive a fresh encode/decode
			// cycle — i.e. it is structurally valid, not a corrupt batch
			// that slipped through.
			payload, err := appendRecord(nil, r)
			if err != nil {
				t.Fatalf("replayed record %d does not re-encode: %v", r.Version, err)
			}
			if _, err := decodeRecord(payload); err != nil {
				t.Fatalf("replayed record %d does not re-decode: %v", r.Version, err)
			}
			if r.Version != uint64(replayed+1) {
				t.Fatalf("replay out of order: got version %d at position %d", r.Version, replayed)
			}
			replayed++
			return nil
		})
		// A replay gap error can only happen when the chain doesn't start
		// at 1 (fuzzed first-record version differs from the name); that is
		// a legitimate rejection, not a failure — but then nothing may have
		// been applied.
		if rerr != nil && replayed != 0 {
			t.Fatalf("replay applied %d records then errored: %v", replayed, rerr)
		}
		if rerr == nil && replayed != ds.Records {
			t.Fatalf("Replay applied %d records, Inspect counted %d", replayed, ds.Records)
		}
		// A replay from mid-chain walks the prefix without decoding it and
		// must still deliver exactly the rest of the chain Inspect counts.
		if rerr == nil && ds.Records > 0 {
			from := ds.LastVersion - uint64(ds.Records/2)
			next := from + 1
			n, err := Replay(dir, from, func(r *Record) error {
				if r.Version != next {
					t.Fatalf("replay from %d: got version %d, want %d", from, r.Version, next)
				}
				next++
				return nil
			})
			if err != nil || n != ds.Records/2 {
				t.Fatalf("replay from %d applied %d records (err %v), want %d", from, n, err, ds.Records/2)
			}
		}

		// Open repairs the directory; its view must match Inspect's, and a
		// second Open must find a clean chain (repair is idempotent and
		// complete).
		l, info, err := Open(dir, Options{Sync: SyncNever})
		if err != nil {
			t.Fatalf("Open errored on fuzz input: %v", err)
		}
		l.Close()
		if rerr == nil && info.Records != ds.Records {
			t.Fatalf("Open recovered %d records, Inspect counted %d", info.Records, ds.Records)
		}
		l2, info2, err := Open(dir, Options{Sync: SyncNever})
		if err != nil {
			t.Fatalf("second Open errored: %v", err)
		}
		l2.Close()
		if info2.TruncatedBytes != 0 || info2.DroppedSegments != 0 {
			t.Fatalf("repair not idempotent: second Open still repaired %+v", info2)
		}
		if info2.LastVersion != info.LastVersion || info2.Records != info.Records {
			t.Fatalf("second Open sees (v%d, %d recs), first saw (v%d, %d recs)",
				info2.LastVersion, info2.Records, info.LastVersion, info.Records)
		}
	})
}
