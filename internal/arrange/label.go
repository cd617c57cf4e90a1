package arrange

import (
	"encoding/binary"
	"slices"
)

// Key returns a canonical string for the label: one byte per region,
// '-' for Exterior, 'b' for Boundary, 'o' for Interior.
func (l Label) Key() string { return string(l.AppendKey(make([]byte, 0, len(l)))) }

// AppendKey appends the label's Key to dst. It allocates only when dst
// lacks room, and translates eight signs per 64-bit word.
func (l Label) AppendKey(dst []byte) []byte {
	n := len(dst)
	dst = slices.Grow(dst, len(l))[:n+len(l)]
	out := dst[n:]
	i := 0
	for ; i+8 <= len(l); i += 8 {
		s := l[i : i+8 : i+8]
		w := uint64(uint8(s[0])) | uint64(uint8(s[1]))<<8 | uint64(uint8(s[2]))<<16 | uint64(uint8(s[3]))<<24 |
			uint64(uint8(s[4]))<<32 | uint64(uint8(s[5]))<<40 | uint64(uint8(s[6]))<<48 | uint64(uint8(s[7]))<<56
		binary.LittleEndian.PutUint64(out[i:], keyWord(w))
	}
	for ; i < len(l); i++ {
		out[i] = "-bo"[l[i]]
	}
	return dst
}

// keyWord maps eight packed signs to their key bytes at once. Per byte,
// '-' + 53*s - 40*(s>>1) sends 0, 1, 2 to '-', 'b', 'o'; every partial
// result stays within 0..255, so no byte carries into its neighbour.
func keyWord(w uint64) uint64 {
	const ones = 0x0101010101010101
	return '-'*ones + w*53 - ((w>>1)&ones)*40
}
