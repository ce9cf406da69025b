package store

import (
	"bytes"
	"testing"
)

// FuzzWalkRecords feeds arbitrary bytes to the segment decoder. Whatever
// the input, the scan must not panic; the good records it reports must sit
// at strictly increasing, in-bounds offsets and re-parse identically from
// their own offsets; its tail and garbage counts must stay within the
// buffer; and a record encoded from the input must parse back to itself.
func FuzzWalkRecords(f *testing.F) {
	recs := [][]byte{
		encodeRecord("key-a", "core.Metrics", []byte("alpha"), 1700000000),
		encodeRecord("0123456789abcdef0123456789abcdef", "t", nil, 0),
		encodeRecord("k", "", bytes.Repeat([]byte{0xAB}, 300), -1),
	}
	var seg []byte
	for _, r := range recs {
		seg = append(seg, r...)
	}
	f.Add(seg, uint32(0))
	f.Add(append(encodeHeader("schema-v1"), seg...), uint32(17))
	f.Add(seg[:len(seg)-3], uint32(0)) // torn tail
	for _, at := range []int{0, 5, 9, 20, len(recs[0]) - 2} {
		flipped := bytes.Clone(seg)
		flipped[at] ^= 0x40
		f.Add(flipped, uint32(at))
	}
	f.Add(append(bytes.Clone(recs[0][:12]), recs[1]...), uint32(1)) // garbage, then a record

	f.Fuzz(func(t *testing.T, buf []byte, b uint32) {
		base := int64(b)
		end := base + int64(len(buf))
		next := base
		tail, garbage := walkRecords(buf, base, func(off int64, rec parsedRecord, st recStatus) {
			if off < next || off >= end {
				t.Fatalf("record at %d: offsets must increase from %d and stay below %d", off, next, end)
			}
			if st != recGood {
				next = off + 1
				return
			}
			if off+rec.recLen > end {
				t.Fatalf("record at %d, length %d runs past %d", off, rec.recLen, end)
			}
			again, st2 := parseRecord(buf[off-base:])
			if st2 != recGood || again.key != rec.key || again.typeName != rec.typeName ||
				!bytes.Equal(again.payload, rec.payload) || again.stamp != rec.stamp || again.recLen != rec.recLen {
				t.Fatalf("record at %d re-parses differently: %+v (%v) vs %+v", off, again, st2, rec)
			}
			next = off + rec.recLen
		})
		if tail < base || tail > end {
			t.Fatalf("tail %d outside [%d, %d]", tail, base, end)
		}
		if garbage < 0 || garbage > int64(len(buf)) {
			t.Fatalf("garbage %d outside [0, %d]", garbage, len(buf))
		}

		// Round trip: carve a key, a type and a payload out of the input.
		if len(buf) == 0 {
			return
		}
		keyLen := 1 + int(buf[0])%min(len(buf), maxKeyLen)
		key := string(buf[:keyLen])
		rest := buf[keyLen:]
		typeLen := min(len(rest)/2, maxTypeLen)
		typeName, payload := string(rest[:typeLen]), rest[typeLen:]
		rec := encodeRecord(key, typeName, payload, int64(b)-1<<31)
		got, st := parseRecord(append(rec, buf...))
		if st != recGood || got.key != key || got.typeName != typeName || !bytes.Equal(got.payload, payload) ||
			got.stamp != int64(b)-1<<31 || got.recLen != int64(len(rec)) {
			t.Fatalf("round trip of (%q, %q, %d payload bytes) gave %+v (%v)", key, typeName, len(payload), got, st)
		}
	})
}
