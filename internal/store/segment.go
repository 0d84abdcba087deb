package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sort"
)

// A segment is one immutable sorted run of a table: fixed-width
// order-preserving keys (internal/tuple codec), each carrying a one-byte op
// (live or tombstone), in ascending key order with no duplicates. Segments
// are written once (memtable flush or compaction merge), then only read —
// by binary search and range cursors directly over the mapped bytes.
//
// File layout:
//
//	header   magic "STISEG1\0" | keyLen u32 | count u32   (16 bytes)
//	entries  count × (keyLen+1) bytes: key || op
//	footer   crc32(entries) u32
//
// Reads go through mmap when the platform provides it (the kernel pages the
// run in and out on demand, which is what lets a table exceed RAM), falling
// back to a plain read otherwise.

const (
	opDel byte = 0 // tombstone: the key is deleted at this level
	opSet byte = 1 // the key is live at this level

	segMagic      = "STISEG1\x00"
	segHeaderSize = 16
)

type segment struct {
	path   string
	keyLen int
	count  int
	raw    []byte // whole mapping (or read buffer)
	ents   []byte // entries region view into raw
	mapped bool   // raw came from mmap and needs munmap
}

// esz is the fixed on-disk entry size.
func (g *segment) esz() int { return g.keyLen + 1 }

// key returns the i-th key (a view into the mapping; do not retain across
// close).
func (g *segment) key(i int) []byte {
	off := i * g.esz()
	return g.ents[off : off+g.keyLen]
}

// op returns the i-th entry's op byte.
func (g *segment) op(i int) byte { return g.ents[i*g.esz()+g.keyLen] }

// search returns the position of key (found=true) or of the first entry
// greater than it.
func (g *segment) search(key []byte) (int, bool) {
	i := sort.Search(g.count, func(i int) bool { return bytes.Compare(g.key(i), key) >= 0 })
	return i, i < g.count && bytes.Equal(g.key(i), key)
}

// find reports whether the segment has an entry for key and its op.
func (g *segment) find(key []byte) (byte, bool) {
	if i, ok := g.search(key); ok {
		return g.op(i), true
	}
	return 0, false
}

func (g *segment) close() {
	if g.mapped {
		munmap(g.raw)
	}
	g.raw, g.ents, g.mapped = nil, nil, false
}

// openSegment maps a segment file and validates its header and checksum.
func openSegment(path string) (*segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := int(fi.Size())
	if size < segHeaderSize+4 {
		return nil, fmt.Errorf("store: segment %s truncated (%d bytes)", path, size)
	}
	raw, mapped := mmapFile(f, size)
	if raw == nil {
		raw = make([]byte, size)
		if _, err := f.ReadAt(raw, 0); err != nil {
			return nil, err
		}
	}
	g := &segment{path: path, raw: raw, mapped: mapped}
	if string(raw[:8]) != segMagic {
		g.close()
		return nil, fmt.Errorf("store: segment %s has bad magic", path)
	}
	g.keyLen = int(binary.BigEndian.Uint32(raw[8:12]))
	g.count = int(binary.BigEndian.Uint32(raw[12:16]))
	want := segHeaderSize + g.count*g.esz() + 4
	if g.keyLen <= 0 || want != size {
		g.close()
		return nil, fmt.Errorf("store: segment %s has inconsistent header (keyLen=%d count=%d size=%d)",
			path, g.keyLen, g.count, size)
	}
	g.ents = raw[segHeaderSize : segHeaderSize+g.count*g.esz()]
	if crc := binary.BigEndian.Uint32(raw[len(raw)-4:]); crc != crc32.ChecksumIEEE(g.ents) {
		g.close()
		return nil, fmt.Errorf("store: segment %s checksum mismatch", path)
	}
	return g, nil
}

// entrySource streams (key, op) pairs in ascending key order to the segment
// writer. Keys yielded may be reused by the next call.
type entrySource interface {
	next() (key []byte, op byte, ok bool)
}

// writeSegment streams src into a new segment file at path, fsyncing before
// returning. The entry count is patched into the header after the stream
// ends, so sources need not know their length up front.
func writeSegment(path string, keyLen int, src entrySource) (count int, err error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(path)
		}
	}()
	w := bufio.NewWriterSize(f, 1<<16)
	var hdr [segHeaderSize]byte
	copy(hdr[:], segMagic)
	binary.BigEndian.PutUint32(hdr[8:], uint32(keyLen))
	if _, err = w.Write(hdr[:]); err != nil {
		return 0, err
	}
	crc := crc32.NewIEEE()
	ent := make([]byte, keyLen+1) // one entry: key || op
	for {
		key, op, ok := src.next()
		if !ok {
			break
		}
		copy(ent, key)
		ent[keyLen] = op
		if _, err = w.Write(ent); err != nil {
			return 0, err
		}
		crc.Write(ent)
		count++
	}
	var foot [4]byte
	binary.BigEndian.PutUint32(foot[:], crc.Sum32())
	if _, err = w.Write(foot[:]); err != nil {
		return 0, err
	}
	if err = w.Flush(); err != nil {
		return 0, err
	}
	// Patch the entry count into the header now that the stream is done.
	var cnt [4]byte
	binary.BigEndian.PutUint32(cnt[:], uint32(count))
	if _, err = f.WriteAt(cnt[:], 12); err != nil {
		return 0, err
	}
	if err = f.Sync(); err != nil {
		return 0, err
	}
	return count, f.Close()
}
