package shuffle

import (
	"encoding/binary"
	"fmt"
)

// Compressor is the pluggable block codec. Implementations must be
// deterministic and self-contained (the container ships no compression
// libraries); blocks are framed by Pack/Unpack so a reader can verify what
// it is decoding.
type Compressor interface {
	Name() string
	Compress(src []byte) []byte
	Decompress(src []byte, rawLen int) ([]byte, error)
}

// CompressorFor maps a core.ShuffleCompress value to a codec: "lz" selects
// the built-in LZ codec; everything else disables compression.
func CompressorFor(name string) Compressor {
	switch name {
	case "lz":
		return lzCodec{}
	default:
		return nil
	}
}

// Frame tags: a packed block starts with one tag byte and the uvarint raw
// length, then the payload.
const (
	frameStored byte = 0 // payload is the raw bytes (compression not worth it)
	frameLZ     byte = 1 // payload is LZ-compressed
)

// Pack produces a block's wire form. Without a codec the raw bytes pass
// through unframed (byte-compatible with the pre-subsystem engines); with
// one, the smaller of stored/compressed is framed, in a buffer of exactly
// the frame's size.
func Pack(set Settings, raw []byte) []byte {
	if set.Compress == nil {
		return raw
	}
	tag, payload := frameStored, raw
	if comp := set.Compress.Compress(raw); len(comp) < len(raw) {
		tag, payload = frameLZ, comp
	}
	var rawLen [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(rawLen[:], uint64(len(raw)))
	frame := make([]byte, 0, 1+n+len(payload))
	return append(append(append(frame, tag), rawLen[:n]...), payload...)
}

// Unpack recovers a block's raw bytes. It must run with the same Settings
// that packed the block (both sides of an edge share one resolved config).
func Unpack(set Settings, data []byte) ([]byte, error) {
	raw, _, err := unpack(set, data)
	return raw, err
}

// unpack is Unpack that also reports whether raw is fresh: decompressed into
// a buffer nothing else refers to, rather than a view of data.
func unpack(set Settings, data []byte) (raw []byte, fresh bool, err error) {
	if set.Compress == nil {
		return data, false, nil
	}
	if len(data) == 0 {
		return nil, false, nil
	}
	tag := data[0]
	rawLen, n := binary.Uvarint(data[1:])
	if n <= 0 {
		return nil, false, fmt.Errorf("shuffle: corrupt block frame")
	}
	payload := data[1+n:]
	switch tag {
	case frameStored:
		if uint64(len(payload)) != rawLen {
			return nil, false, fmt.Errorf("shuffle: stored block is %d bytes, frame says %d", len(payload), rawLen)
		}
		return payload, false, nil
	case frameLZ:
		// A match token is three bytes and expands to at most lzMaxMatch,
		// so a frame that claims more cannot be honest — and must not size
		// the output buffer.
		if rawLen > uint64(len(payload))/3*lzMaxMatch+uint64(len(payload)) {
			return nil, false, fmt.Errorf("shuffle: %d compressed bytes cannot hold the %d the frame says", len(payload), rawLen)
		}
		raw, err := set.Compress.Decompress(payload, int(rawLen))
		return raw, err == nil, err
	default:
		return nil, false, fmt.Errorf("shuffle: unknown block frame tag %d", tag)
	}
}

// lzCodec is a dependency-free byte-oriented LZ77 codec in the LZ4 family:
// greedy 4-byte matches against a 64 KB window, encoded as literal-run and
// match tokens. It is built for shuffle blocks — runs of serialized records
// with heavy key/prefix repetition — not for general-purpose archiving.
//
// Token format (one control byte each):
//
//	0x00..0x7F: literal run of (ctrl + 1) bytes, which follow directly
//	0x80..0xFF: match of (ctrl - 0x80 + minMatch) bytes at the 16-bit
//	            little-endian offset that follows (1-based, ≤ 64 KB back)
type lzCodec struct{}

const (
	lzMinMatch  = 4
	lzMaxMatch  = lzMinMatch + 0x7F
	lzMaxLit    = 0x80
	lzWindow    = 1 << 16
	lzHashBits  = 14
	lzHashShift = 32 - lzHashBits
)

func (lzCodec) Name() string { return "lz" }

func lzHash(v uint32) uint32 { return (v * 2654435761) >> lzHashShift }

func load32(b []byte, i int) uint32 {
	return uint32(b[i]) | uint32(b[i+1])<<8 | uint32(b[i+2])<<16 | uint32(b[i+3])<<24
}

// Compress implements Compressor.
func (lzCodec) Compress(src []byte) []byte {
	out := make([]byte, 0, len(src)/2+16)
	var table [1 << lzHashBits]int // candidate position + 1 (0 = empty)
	litStart := 0
	i := 0
	flushLits := func(end int) {
		for litStart < end {
			n := end - litStart
			if n > lzMaxLit {
				n = lzMaxLit
			}
			out = append(out, byte(n-1))
			out = append(out, src[litStart:litStart+n]...)
			litStart += n
		}
	}
	for i+lzMinMatch <= len(src) {
		h := lzHash(load32(src, i))
		cand := int(table[h]) - 1
		table[h] = i + 1
		if cand >= 0 && i-cand < lzWindow && load32(src, cand) == load32(src, i) {
			// Extend the match.
			length := lzMinMatch
			for i+length < len(src) && length < lzMaxMatch && src[cand+length] == src[i+length] {
				length++
			}
			flushLits(i)
			off := i - cand
			out = append(out, byte(0x80+length-lzMinMatch), byte(off), byte(off>>8))
			i += length
			litStart = i
			continue
		}
		i++
	}
	flushLits(len(src))
	return out
}

// Decompress implements Compressor.
func (lzCodec) Decompress(src []byte, rawLen int) ([]byte, error) {
	if rawLen < 0 {
		return nil, fmt.Errorf("shuffle: negative raw length")
	}
	out := make([]byte, 0, rawLen)
	i := 0
	for i < len(src) {
		ctrl := src[i]
		i++
		if ctrl < 0x80 {
			n := int(ctrl) + 1
			if i+n > len(src) {
				return nil, fmt.Errorf("shuffle: truncated literal run")
			}
			out = append(out, src[i:i+n]...)
			i += n
			continue
		}
		if i+2 > len(src) {
			return nil, fmt.Errorf("shuffle: truncated match token")
		}
		length := int(ctrl-0x80) + lzMinMatch
		off := int(src[i]) | int(src[i+1])<<8
		i += 2
		if off == 0 || off > len(out) {
			return nil, fmt.Errorf("shuffle: match offset %d outside %d decoded bytes", off, len(out))
		}
		// Byte-at-a-time copy: matches may overlap their own output.
		for j := 0; j < length; j++ {
			out = append(out, out[len(out)-off])
		}
	}
	if len(out) != rawLen {
		return nil, fmt.Errorf("shuffle: decompressed %d bytes, frame says %d", len(out), rawLen)
	}
	return out, nil
}
