package blockstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
	"slices"

	"repro/internal/mem"
)

// Journal record framing. Every record is:
//
//	magic  uint32  (recMagic)
//	kind   uint8
//	plen   uint32  payload length in bytes
//	crc    uint32  CRC-32C over kind, plen, payload
//	payload
//
// all little-endian. Appends are whole records, so a crash leaves either a
// clean record boundary or a torn final record — a strict prefix of a valid
// frame. Replay exploits that: damage that reaches end-of-journal is a torn
// tail and is truncated away; damage with valid bytes after it can only be
// real corruption and fails loudly (ErrCorrupt). Nothing recovers silently.
const (
	recMagic   = 0x424a4c32 // "BJL2"
	recHdrSize = 13
)

// Record kinds.
const (
	kindWrite      = uint8(1) // pid + ref + block words: new content
	kindMap        = uint8(2) // pid + ref: write deduplicated to known content
	kindFree       = uint8(3) // pid: block dropped
	kindCheckpoint = uint8(4) // manifest + full pid->ref map at the barrier
	kindRevert     = uint8(5) // live map reset to the last checkpoint's
	kindBatch      = uint8(6) // count + per entry: pid, ref, new-content flag, [words]
)

// ErrCorrupt reports journal damage that cannot be a torn tail: bytes in
// the durable prefix fail their CRC, reference unknown content, or break
// record sequencing. Opening such a journal fails; it never half-loads.
var ErrCorrupt = errors.New("blockstore: journal corrupt")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ref is a 128-bit content address: two independent word-folded FNV-1a
// accumulators finished with the murmur fmix64 avalanche (the fleet ring's
// trick, reused here for the same reason — raw FNV clusters). sha256 would
// cost more than the rest of the page-out path combined; 128 fast bits keep
// content addressing off the hot path's critical cost, and dedup verifies
// candidate matches byte-for-byte anyway, so a collision is detected, not
// silently merged.
type ref struct{ hi, lo uint64 }

func (r ref) String() string { return fmt.Sprintf("%016x%016x", r.hi, r.lo) }

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
	refSeed2  = 0x9e3779b97f4a7c15 // splits the second lane off the first
)

func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// refOf addresses a block's content: all of its words, zeros included,
// so an address does not depend on how the words are journaled.
func refOf(words []uint64) ref {
	h1, h2 := uint64(fnvOffset), uint64(fnvOffset^refSeed2)
	for _, w := range words {
		h1 = (h1 ^ w) * fnvPrime
		h2 = (h2 ^ bits.RotateLeft64(w, 31)) * fnvPrime
	}
	n := uint64(len(words))
	return ref{hi: fmix64(h1 ^ n), lo: fmix64(h2 ^ (n * fnvPrime))}
}

// Block words are journaled sparsely, the way Multics page control gave a
// page of zeros a null disk address instead of a record. n words encode
// as a presence bitmap of ceil(n/64) little-endian words, in which bit
// i%64 of word i/64 stands for word i, followed by the non-zero words
// alone, little-endian and in order. The encoding is canonical: a bit is
// set exactly when its word is non-zero and no bit is set past n, so equal
// words always encode to equal bytes. The word count is written before
// the encoding; appendWords and decodeWords are its only writer and
// reader.

// bitmapWords is the length in words of the presence bitmap of n words.
func bitmapWords(n int) int { return (n + 63) / 64 }

// appendWords appends the encoding of ws to b.
func appendWords(b []byte, ws []uint64) []byte {
	nb := bitmapWords(len(ws))
	at := len(b)
	b = slices.Grow(b, (nb+len(ws))*8)[:at+nb*8]
	for g := 0; g < nb; g++ {
		var present uint64
		for j, w := range ws[g*64 : min(len(ws), g*64+64)] {
			if w != 0 {
				present |= 1 << j
				b = binary.LittleEndian.AppendUint64(b, w)
			}
		}
		binary.LittleEndian.PutUint64(b[at+g*8:], present)
	}
	return b
}

// decodeWords overwrites every word of ws with the words enc encodes. It
// reports false, leaving ws undefined, unless enc is the canonical
// encoding of exactly len(ws) words: no bitmap bit past len(ws), no
// present word that is zero, and no byte beyond the present words.
func decodeWords(ws []uint64, enc []byte) bool {
	nb := bitmapWords(len(ws))
	if len(enc) < nb*8 {
		return false
	}
	vals := enc[nb*8:]
	clear(ws)
	for g := 0; g < nb; g++ {
		present := binary.LittleEndian.Uint64(enc[g*8:])
		if rest := len(ws) - g*64; rest < 64 && present>>rest != 0 {
			return false
		}
		for ; present != 0; present &= present - 1 {
			if len(vals) < 8 {
				return false
			}
			w := binary.LittleEndian.Uint64(vals)
			if w == 0 {
				return false
			}
			ws[g*64+bits.TrailingZeros64(present)] = w
			vals = vals[8:]
		}
	}
	return len(vals) == 0
}

// span locates one block's encoded words in the journal: the offset of
// the presence bitmap, the word count and the encoding's length in bytes.
// The content table maps each address to the span of the record that
// first carried its words, so the journal is the only copy of them.
type span struct {
	off  int64
	n    int
	size int
}

// recEncoder builds one framed record in a reusable buffer.
type recEncoder struct{ buf []byte }

func (e *recEncoder) begin(kind uint8) {
	e.buf = e.buf[:0]
	e.buf = binary.LittleEndian.AppendUint32(e.buf, recMagic)
	e.buf = append(e.buf, kind)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, 0) // plen, patched in finish
	e.buf = binary.LittleEndian.AppendUint32(e.buf, 0) // crc, patched in finish
}

func (e *recEncoder) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *recEncoder) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *recEncoder) pid(p mem.PageID) {
	e.u64(p.SegUID)
	e.u64(uint64(int64(p.Index)))
}
func (e *recEncoder) ref(r ref) {
	e.u64(r.hi)
	e.u64(r.lo)
}

// words encodes a word count and the words, and returns the offset in
// the record at which their encoding starts and its length.
func (e *recEncoder) words(ws []uint64) (at, size int) {
	e.u32(uint32(len(ws)))
	at = len(e.buf)
	e.buf = appendWords(e.buf, ws)
	return at, len(e.buf) - at
}
func (e *recEncoder) bytes(p []byte) {
	e.u32(uint32(len(p)))
	e.buf = append(e.buf, p...)
}

// finish patches length and CRC and returns the framed record.
func (e *recEncoder) finish() []byte {
	plen := uint32(len(e.buf) - recHdrSize)
	binary.LittleEndian.PutUint32(e.buf[5:9], plen)
	crc := crc32.Checksum(e.buf[4:9], crcTable)           // kind + plen
	crc = crc32.Update(crc, crcTable, e.buf[recHdrSize:]) // payload
	binary.LittleEndian.PutUint32(e.buf[9:recHdrSize], crc)
	return e.buf
}

// recDecoder reads payload fields with saturating error state. base is
// the journal offset of p[0].
type recDecoder struct {
	p    []byte
	base int64
	off  int
	bad  bool
}

func (d *recDecoder) u32() uint32 {
	if d.bad || d.off+4 > len(d.p) {
		d.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint32(d.p[d.off:])
	d.off += 4
	return v
}

func (d *recDecoder) u64() uint64 {
	if d.bad || d.off+8 > len(d.p) {
		d.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(d.p[d.off:])
	d.off += 8
	return v
}

func (d *recDecoder) pid() mem.PageID {
	uid := d.u64()
	idx := int64(d.u64())
	return mem.PageID{SegUID: uid, Index: int(idx)}
}

func (d *recDecoder) ref() ref {
	hi := d.u64()
	lo := d.u64()
	return ref{hi: hi, lo: lo}
}

// words reads a word count and the encoding after it, whose length its
// bitmap's population count fixes, and returns the encoding's span in
// the journal and its bytes, which stay in the payload. It does not
// decode them.
func (d *recDecoder) words() (span, []byte) {
	n := int(d.u32())
	nb := bitmapWords(n)
	if d.bad || nb > (len(d.p)-d.off)/8 {
		d.bad = true
		return span{}, nil
	}
	size := nb * 8
	for g := 0; g < nb; g++ {
		size += 8 * bits.OnesCount64(binary.LittleEndian.Uint64(d.p[d.off+g*8:]))
	}
	if size > len(d.p)-d.off {
		d.bad = true
		return span{}, nil
	}
	sp := span{off: d.base + int64(d.off), n: n, size: size}
	b := d.p[d.off : d.off+size]
	d.off += size
	return sp, b
}

func (d *recDecoder) bytes() []byte {
	n := d.u32()
	if d.bad || d.off+int(n) > len(d.p) {
		d.bad = true
		return nil
	}
	out := append([]byte(nil), d.p[d.off:d.off+int(n)]...)
	d.off += int(n)
	return out
}

// RecoveryReport describes what replay found when a journal was opened.
type RecoveryReport struct {
	Records     int   `json:"records"`      // valid records applied
	Writes      int   `json:"writes"`       // kindWrite records
	Maps        int   `json:"maps"`         // kindMap (deduplicated writes)
	Frees       int   `json:"frees"`        // kindFree records
	Checkpoints int   `json:"checkpoints"`  // kindCheckpoint records
	Reverts     int   `json:"reverts"`      // kindRevert records
	Batches     int   `json:"batches"`      // kindBatch record groups
	TornBytes   int64 `json:"torn_bytes"`   // bytes discarded from a torn tail
	Truncated   bool  `json:"truncated"`    // journal was cut back to the last whole record
	JournalSize int64 `json:"journal_size"` // size after recovery
}

// replayState is the in-memory image replay rebuilds. It holds no block
// words: content maps each address to its span in the replayed bytes.
type replayState struct {
	index    map[mem.PageID]ref
	content  map[ref]span
	ckpt     map[mem.PageID]ref // nil until a checkpoint record
	manifest []byte
	// words receives each record's block words for the address check.
	words []uint64
}

// addContent records sp, whose encoding is enc, as the content at address
// r, after the check beyond the CRC: the encoding must be canonical and
// decode to words that hash to r.
func (st *replayState) addContent(pid mem.PageID, r ref, sp span, enc []byte, off int) error {
	if cap(st.words) < sp.n {
		st.words = make([]uint64, sp.n)
	}
	ws := st.words[:sp.n]
	if !decodeWords(ws, enc) {
		return fmt.Errorf("%w: words of block %v are not canonically encoded (offset %d)", ErrCorrupt, pid, off)
	}
	if refOf(ws) != r {
		return fmt.Errorf("%w: content of block %v does not match its address %v (offset %d)", ErrCorrupt, pid, r, off)
	}
	st.content[r] = sp
	return nil
}

// replay scans the journal bytes, applies every whole valid record, and
// classifies damage: torn tail (recoverable, truncated) vs corruption
// (ErrCorrupt). It returns the rebuilt state, the report, and the byte
// offset the journal should be truncated to (== len(data) when intact).
func replay(data []byte) (*replayState, *RecoveryReport, int64, error) {
	st := &replayState{
		index:   make(map[mem.PageID]ref),
		content: make(map[ref]span),
	}
	rep := &RecoveryReport{}
	off := 0
	for off < len(data) {
		remain := len(data) - off
		if remain < recHdrSize {
			return st, rep, torn(rep, off, len(data)), nil
		}
		if binary.LittleEndian.Uint32(data[off:]) != recMagic {
			return nil, nil, 0, fmt.Errorf("%w: bad record magic at offset %d", ErrCorrupt, off)
		}
		kind := data[off+4]
		plen := int(binary.LittleEndian.Uint32(data[off+5:]))
		if remain < recHdrSize+plen {
			// The frame runs past end-of-journal: a torn final append.
			return st, rep, torn(rep, off, len(data)), nil
		}
		wantCRC := binary.LittleEndian.Uint32(data[off+9:])
		// The payload's capacity ends with it, so no decoder can read
		// the next record's bytes.
		end := off + recHdrSize + plen
		payload := data[off+recHdrSize : end : end]
		crc := crc32.Checksum(data[off+4:off+5], crcTable)
		crc = crc32.Update(crc, crcTable, data[off+5:off+9])
		crc = crc32.Update(crc, crcTable, payload)
		if crc != wantCRC {
			return nil, nil, 0, fmt.Errorf("%w: CRC mismatch in %s record at offset %d", ErrCorrupt, kindName(kind), off)
		}
		if err := applyRecord(st, rep, kind, payload, off); err != nil {
			return nil, nil, 0, err
		}
		rep.Records++
		off += recHdrSize + plen
	}
	rep.JournalSize = int64(len(data))
	return st, rep, int64(len(data)), nil
}

// torn records a torn-tail truncation at offset off.
func torn(rep *RecoveryReport, off, size int) int64 {
	rep.TornBytes = int64(size - off)
	rep.Truncated = true
	rep.JournalSize = int64(off)
	return int64(off)
}

func kindName(kind uint8) string {
	switch kind {
	case kindWrite:
		return "write"
	case kindMap:
		return "map"
	case kindFree:
		return "free"
	case kindCheckpoint:
		return "checkpoint"
	case kindRevert:
		return "revert"
	case kindBatch:
		return "batch"
	default:
		return fmt.Sprintf("kind-%d", kind)
	}
}

// applyRecord applies one whole record whose frame starts at journal
// offset off.
func applyRecord(st *replayState, rep *RecoveryReport, kind uint8, payload []byte, off int) error {
	d := &recDecoder{p: payload, base: int64(off + recHdrSize)}
	switch kind {
	case kindWrite:
		pid := d.pid()
		r := d.ref()
		sp, enc := d.words()
		if d.bad {
			return fmt.Errorf("%w: short write record at offset %d", ErrCorrupt, off)
		}
		if err := st.addContent(pid, r, sp, enc, off); err != nil {
			return err
		}
		st.index[pid] = r
		rep.Writes++
	case kindMap:
		pid := d.pid()
		r := d.ref()
		if d.bad {
			return fmt.Errorf("%w: short map record at offset %d", ErrCorrupt, off)
		}
		if _, ok := st.content[r]; !ok {
			return fmt.Errorf("%w: map record for block %v references unknown content %v (offset %d)", ErrCorrupt, pid, r, off)
		}
		st.index[pid] = r
		rep.Maps++
	case kindFree:
		pid := d.pid()
		if d.bad {
			return fmt.Errorf("%w: short free record at offset %d", ErrCorrupt, off)
		}
		delete(st.index, pid)
		rep.Frees++
	case kindCheckpoint:
		manifest := d.bytes()
		n := d.u32()
		if d.bad {
			return fmt.Errorf("%w: short checkpoint record at offset %d", ErrCorrupt, off)
		}
		// Size the map by the entries the payload can hold (32 bytes
		// each), not by the count it claims.
		ckpt := make(map[mem.PageID]ref, min(int(n), (len(d.p)-d.off)/32))
		for i := 0; i < int(n); i++ {
			pid := d.pid()
			r := d.ref()
			if d.bad {
				return fmt.Errorf("%w: short checkpoint map at offset %d", ErrCorrupt, off)
			}
			if _, ok := st.content[r]; !ok {
				return fmt.Errorf("%w: checkpoint references unknown content %v for block %v (offset %d)", ErrCorrupt, r, pid, off)
			}
			ckpt[pid] = r
		}
		st.ckpt = ckpt
		st.manifest = manifest
		rep.Checkpoints++
	case kindRevert:
		if st.ckpt == nil {
			return fmt.Errorf("%w: revert record with no prior checkpoint (offset %d)", ErrCorrupt, off)
		}
		st.index = make(map[mem.PageID]ref, len(st.ckpt))
		for pid, r := range st.ckpt {
			st.index[pid] = r
		}
		rep.Reverts++
	case kindBatch:
		n := d.u32()
		if d.bad {
			return fmt.Errorf("%w: short batch record at offset %d", ErrCorrupt, off)
		}
		for i := 0; i < int(n); i++ {
			pid := d.pid()
			r := d.ref()
			flag := d.u32()
			if d.bad {
				return fmt.Errorf("%w: short batch entry %d at offset %d", ErrCorrupt, i, off)
			}
			if flag == 1 {
				sp, enc := d.words()
				if d.bad {
					return fmt.Errorf("%w: short batch entry %d at offset %d", ErrCorrupt, i, off)
				}
				if err := st.addContent(pid, r, sp, enc, off); err != nil {
					return err
				}
				rep.Writes++
			} else {
				if _, ok := st.content[r]; !ok {
					return fmt.Errorf("%w: batch entry for block %v references unknown content %v (offset %d)", ErrCorrupt, pid, r, off)
				}
				rep.Maps++
			}
			st.index[pid] = r
		}
		rep.Batches++
	default:
		return fmt.Errorf("%w: unknown record kind %d at offset %d", ErrCorrupt, kind, off)
	}
	// A record is exactly its fields: bytes past them, say a write whose
	// length disagrees with its bitmap, are damage too.
	if d.off != len(d.p) {
		return fmt.Errorf("%w: %d bytes past the fields of the %s record at offset %d", ErrCorrupt, len(d.p)-d.off, kindName(kind), off)
	}
	return nil
}
