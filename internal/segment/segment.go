// Package segment is the one on-disk log format of the serving stack. The
// cluster journal (snapshot.wal, journal.wal), the result store
// (results.seg) and the fleet claims region (claims.seg) are all files of
// frames:
//
//	uint32-LE payload length | uint32-LE CRC-32C (Castagnoli) of payload | payload
//
// A payload is at most MaxPayload bytes; a larger declared length is
// corruption, not data. Frames are only ever appended, so a crash or a
// failed write can damage only the bytes past the last complete frame. A
// torn frame (too short for its declared length) or a corrupt one
// (checksum mismatch) ends the valid prefix: frame boundaries past it
// cannot be trusted, so a scan stops there and a writer cuts the file
// back to it before appending. A frame whose checksum holds but whose
// payload the caller's decoder rejects (version skew, a bug) is skipped
// and counted; the framing past it is still intact.
//
// The package knows nothing about payloads. Each log supplies a record
// codec and a fold into its own in-memory state; segment supplies the
// framing (Encode), scanning (Scan, Log.CatchUp), append handles that cut
// torn tails and write only at the tracked valid end (Open, Log.Append),
// and atomic whole-file replacement (Rewrite, Log.Rewrite).
package segment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

const (
	// HeaderSize is the length of a frame header: payload length + CRC.
	HeaderSize = 8
	// MaxPayload bounds one frame's payload. Records are kilobytes;
	// anything near this bound is corruption.
	MaxPayload = 64 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC-32C a frame header carries for payload.
func Checksum(payload []byte) uint32 { return crc32.Checksum(payload, castagnoli) }

// Encode frames payload, ready to append.
func Encode(payload []byte) ([]byte, error) {
	if len(payload) > MaxPayload {
		return nil, fmt.Errorf("segment: record of %d bytes exceeds frame limit", len(payload))
	}
	frame := make([]byte, HeaderSize+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], Checksum(payload))
	copy(frame[HeaderSize:], payload)
	return frame, nil
}

// Frame is one CRC-valid frame found by a scan.
type Frame struct {
	Off     int64  // offset of the frame header in the scanned file (or buffer)
	CRC     uint32 // checksum of Payload, as the header records it
	Payload []byte // aliases the scanned bytes; copy to retain
}

// Size is the frame's length on disk, header included.
func (f Frame) Size() int64 { return HeaderSize + int64(len(f.Payload)) }

// Scan walks the frames of data, handing each CRC-valid one to decode,
// which reports whether it accepted the payload. It returns the length of
// the valid prefix and the number of frames decode rejected.
func Scan(data []byte, decode func(Frame) bool) (valid int64, skipped int) {
	return scan(data, 0, decode)
}

// scan is Scan with frame offsets shifted by base, the file offset of
// data[0].
func scan(data []byte, base int64, decode func(Frame) bool) (valid int64, skipped int) {
	for {
		rest := data[valid:]
		if len(rest) < HeaderSize {
			return valid, skipped
		}
		n := binary.LittleEndian.Uint32(rest[0:4])
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if n > MaxPayload || int64(n) > int64(len(rest)-HeaderSize) {
			return valid, skipped
		}
		payload := rest[HeaderSize : HeaderSize+n]
		if Checksum(payload) != sum {
			return valid, skipped
		}
		if !decode(Frame{Off: base + valid, CRC: sum, Payload: payload}) {
			skipped++
		}
		valid += HeaderSize + int64(n)
	}
}

// Scanned reports what a scan of a log file found.
type Scanned struct {
	// Skipped counts CRC-valid frames the decoder rejected.
	Skipped int
	// Cut counts torn or corrupt tail bytes truncated away. Only writable
	// logs cut; a follower leaves another process's tail alone.
	Cut int64
}

// Log is an open segment file and the length of its valid prefix, End.
// Appends land at End, never at the file's end, so bytes a failed write
// left behind are overwritten rather than followed. A Log is not safe for
// concurrent use; its owner serialises access.
type Log struct {
	path     string
	f        *os.File
	end      int64
	noSync   bool
	readOnly bool
}

// Open opens path for appending, creating it if missing. It folds the
// file's frames through decode and cuts any torn or corrupt tail, so
// appends never follow garbage. Unless noSync is set, every Append is
// fsync'd before it returns.
func Open(path string, noSync bool, decode func(Frame) bool) (*Log, Scanned, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, Scanned{}, err
	}
	return start(&Log{path: path, f: f, noSync: noSync}, decode)
}

// Follow opens an existing log read-only to follow another process's
// appends (see CatchUp), folding its current frames through decode. The
// file is never written or truncated through this handle.
func Follow(path string, decode func(Frame) bool) (*Log, Scanned, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, Scanned{}, err
	}
	return start(&Log{path: path, f: f, readOnly: true}, decode)
}

func start(l *Log, decode func(Frame) bool) (*Log, Scanned, error) {
	sc, err := l.CatchUp(decode)
	if err != nil {
		l.f.Close()
		return nil, Scanned{}, err
	}
	return l, sc, nil
}

// CatchUp folds the frames past End — appended by another process since
// the last scan — through decode and advances End over them. A writable
// log then cuts any torn tail; the caller must exclude other writers
// while it does.
func (l *Log) CatchUp(decode func(Frame) bool) (Scanned, error) {
	size, err := l.f.Seek(0, io.SeekEnd)
	if err != nil {
		return Scanned{}, fmt.Errorf("segment: seek %s: %w", l.path, err)
	}
	if size <= l.end {
		return Scanned{}, nil
	}
	data := make([]byte, size-l.end)
	if _, err := l.f.ReadAt(data, l.end); err != nil {
		return Scanned{}, fmt.Errorf("segment: read %s: %w", l.path, err)
	}
	valid, skipped := scan(data, l.end, decode)
	l.end += valid
	sc := Scanned{Skipped: skipped}
	if !l.readOnly && l.end < size {
		if err := l.f.Truncate(l.end); err != nil {
			return sc, fmt.Errorf("segment: truncate %s: %w", l.path, err)
		}
		sc.Cut = size - l.end
	}
	return sc, nil
}

// Append frames payload, writes the frame at End and, unless the log was
// opened with noSync, fsyncs it; beforeSync, when non-nil, runs between
// the write and the fsync. End advances only once both succeed, so the
// next append overwrites whatever a failed one left. It returns the frame
// as a scan would find it.
func (l *Log) Append(payload []byte, beforeSync func()) (Frame, error) {
	if l.readOnly {
		return Frame{}, errors.New("segment: append to a read-only log")
	}
	frame, err := Encode(payload)
	if err != nil {
		return Frame{}, err
	}
	if _, err := l.f.WriteAt(frame, l.end); err != nil {
		return Frame{}, err
	}
	if beforeSync != nil {
		beforeSync()
	}
	if !l.noSync {
		if err := l.f.Sync(); err != nil {
			return Frame{}, err
		}
	}
	fr := Frame{Off: l.end, CRC: binary.LittleEndian.Uint32(frame[4:8]), Payload: frame[HeaderSize:]}
	l.end += int64(len(frame))
	return fr, nil
}

// End is the length of the valid prefix: where the next frame goes.
func (l *Log) End() int64 { return l.end }

// ReadAt reads from the log's file, valid prefix or not.
func (l *Log) ReadAt(p []byte, off int64) (int, error) { return l.f.ReadAt(p, off) }

// Replaced reports whether the file at the log's path is no longer the
// one the log has open — another process rewrote it. The comparison is by
// (device, inode), the identity a rename changes.
func (l *Log) Replaced() (bool, error) {
	held, err := l.f.Stat()
	if err != nil {
		return false, fmt.Errorf("segment: stat held %s: %w", l.path, err)
	}
	now, err := os.Stat(l.path)
	if err != nil {
		if os.IsNotExist(err) {
			return false, nil // transient: mid-rename; the next check settles it
		}
		return false, fmt.Errorf("segment: stat %s: %w", l.path, err)
	}
	return !os.SameFile(held, now), nil
}

// Rewrite replaces the log's file atomically with the bytes write produces
// (see the package-level Rewrite) and moves the handle onto the new file,
// End at its size. write may read the old file through the log.
func (l *Log) Rewrite(write func(io.Writer) error, beforeRename func()) error {
	if err := Rewrite(l.path, write, beforeRename); err != nil {
		return err
	}
	f, err := os.OpenFile(l.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("segment: reopen rewritten %s: %w", l.path, err)
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return fmt.Errorf("segment: seek rewritten %s: %w", l.path, err)
	}
	l.f.Close()
	l.f, l.end = f, size
	return nil
}

// Reset empties the log.
func (l *Log) Reset() error {
	if err := l.f.Truncate(0); err != nil {
		return err
	}
	l.end = 0
	return nil
}

// Sync flushes the file to stable storage.
func (l *Log) Sync() error { return l.f.Sync() }

// Close closes the file without syncing it.
func (l *Log) Close() error { return l.f.Close() }

// Rewrite atomically replaces the file at path with the bytes write
// produces: they go to a temporary file in the same directory, which is
// fsync'd, then (after beforeRename, when non-nil) renamed over path, and
// the directory is fsync'd. A crash at any point leaves either the old
// file or the new one, both complete.
func Rewrite(path string, write func(io.Writer) error, beforeRename func()) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	// CreateTemp makes the file 0600; give it the mode Open creates with.
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return err
	}
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if beforeRename != nil {
		beforeRename()
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory so a just-renamed file durably appears in it.
// Best-effort: some filesystems refuse directory fsync, and the rename is
// already atomic.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
