package wal

import (
	"compress/gzip"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Checkpoints are full-store state dumps written beside the segments:
// gzipped gob (the same encoding idiom as internal/data/persist.go), named
// ckpt-%020d.ckpt by the store version they capture. Each file carries a
// small gob header before the state so loaders can reject foreign files
// without decoding a potentially huge payload; the gzip footer CRC (verified
// by draining to EOF) covers the whole body. Writes are atomic:
// tmp + fsync + rename + dir fsync — a crashed write leaves only a .tmp
// husk, which pruning removes.

const (
	ckptMagic   = "NVMCKPT1"
	ckptFormat  = 1
	ckptPrefix  = "ckpt-"
	ckptSuffix  = ".ckpt"
	ckptNameLen = len(ckptPrefix) + 20 + len(ckptSuffix)
	// ckptLevel trades ~5% more checkpoint bytes for a ~3x cheaper write:
	// a checkpoint gzips the whole store, every shard leader writes one at
	// about the same version, and the compression runs on a host that is
	// still ingesting. Readers accept any level, so files written at
	// another level still load.
	ckptLevel = gzip.BestSpeed
)

type ckptHeader struct {
	Magic   string
	Format  int
	Version uint64
}

// WriteCheckpoint atomically writes state (any gob-encodable value) as the
// checkpoint for the given store version.
func WriteCheckpoint(dir string, version uint64, state any) (retErr error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("wal: create checkpoint dir: %w", err)
	}
	final := filepath.Join(dir, ckptName(version))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create checkpoint: %w", err)
	}
	defer func() {
		if retErr != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	zw, _ := gzip.NewWriterLevel(f, ckptLevel) // a valid constant level: cannot fail
	enc := gob.NewEncoder(zw)
	if err := enc.Encode(ckptHeader{Magic: ckptMagic, Format: ckptFormat, Version: version}); err != nil {
		return fmt.Errorf("wal: encode checkpoint header: %w", err)
	}
	if err := enc.Encode(state); err != nil {
		return fmt.Errorf("wal: encode checkpoint state: %w", err)
	}
	if err := zw.Close(); err != nil {
		return fmt.Errorf("wal: flush checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: sync checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: close checkpoint: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("wal: publish checkpoint: %w", err)
	}
	return syncDir(dir)
}

// LoadCheckpoint decodes a checkpoint file into state and returns the store
// version it captures. Any decoding failure — including a gzip CRC mismatch
// detected while draining to EOF — is reported; the caller falls back to an
// older checkpoint.
func LoadCheckpoint(path string, state any) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("wal: open checkpoint: %w", err)
	}
	defer f.Close()
	v, err := ReadCheckpoint(f, state)
	if err != nil {
		return 0, err
	}
	if nameV, ok := parseCkptName(filepath.Base(path)); ok && nameV != v {
		return 0, fmt.Errorf("wal: checkpoint name says version %d, header says %d", nameV, v)
	}
	return v, nil
}

// ReadCheckpoint decodes a checkpoint byte stream (the exact file format,
// minus the filename cross-check LoadCheckpoint adds) into state and returns
// the store version it captures. This is the loader a replication follower
// uses on an HTTP response body, where there is no filename to check against
// — the caller compares the version to the leader's advertised one instead.
func ReadCheckpoint(r io.Reader, state any) (uint64, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return 0, fmt.Errorf("wal: checkpoint not gzip: %w", err)
	}
	defer zr.Close()
	dec := gob.NewDecoder(zr)
	var hdr ckptHeader
	if err := dec.Decode(&hdr); err != nil {
		return 0, fmt.Errorf("wal: decode checkpoint header: %w", err)
	}
	if hdr.Magic != ckptMagic {
		return 0, fmt.Errorf("wal: bad checkpoint magic %q", hdr.Magic)
	}
	if hdr.Format != ckptFormat {
		return 0, fmt.Errorf("wal: unknown checkpoint format %d", hdr.Format)
	}
	if err := dec.Decode(state); err != nil {
		return 0, fmt.Errorf("wal: decode checkpoint state: %w", err)
	}
	// Drain to EOF so the gzip footer CRC is actually verified — gob stops
	// reading at the last value and would miss a corrupted tail otherwise.
	if _, err := io.Copy(io.Discard, zr); err != nil {
		return 0, fmt.Errorf("wal: checkpoint trailer: %w", err)
	}
	return hdr.Version, nil
}

// CheckpointInfo describes one checkpoint file.
type CheckpointInfo struct {
	Path    string
	Version uint64
	Bytes   int64
}

// Checkpoints lists the checkpoint files in dir, oldest first. It does not
// validate contents — LoadCheckpoint does that, and recovery walks the list
// newest-first until one loads.
func Checkpoints(dir string) ([]CheckpointInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: read checkpoint dir: %w", err)
	}
	var out []CheckpointInfo
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		v, ok := parseCkptName(e.Name())
		if !ok {
			continue
		}
		ci := CheckpointInfo{Path: filepath.Join(dir, e.Name()), Version: v}
		if st, err := e.Info(); err == nil {
			ci.Bytes = st.Size()
		}
		out = append(out, ci)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Version < out[j].Version })
	return out, nil
}

// PruneCheckpoints removes all but the newest keep checkpoints, plus any
// stray .tmp husks from crashed writes. Returns the surviving checkpoints,
// oldest first.
func PruneCheckpoints(dir string, keep int) ([]CheckpointInfo, error) {
	if keep < 1 {
		keep = 1
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: read checkpoint dir: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".tmp") {
			if _, ok := parseCkptName(strings.TrimSuffix(e.Name(), ".tmp")); ok {
				os.Remove(filepath.Join(dir, e.Name()))
			}
		}
	}
	cks, err := Checkpoints(dir)
	if err != nil {
		return nil, err
	}
	removed := false
	for len(cks) > keep {
		if err := os.Remove(cks[0].Path); err != nil {
			return cks, fmt.Errorf("wal: prune checkpoint: %w", err)
		}
		cks = cks[1:]
		removed = true
	}
	if removed {
		if err := syncDir(dir); err != nil {
			return cks, err
		}
	}
	return cks, nil
}

func ckptName(version uint64) string {
	return fmt.Sprintf("%s%020d%s", ckptPrefix, version, ckptSuffix)
}

func parseCkptName(name string) (uint64, bool) {
	if len(name) != ckptNameLen || !strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ckptSuffix) {
		return 0, false
	}
	v, err := strconv.ParseUint(name[len(ckptPrefix):len(ckptPrefix)+20], 10, 64)
	return v, err == nil
}
