package rowcodec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"unicode/utf8"
)

const (
	escape         = 255 // the code of a column kept as text
	maxEntries     = 255 // codes 0..254
	maxSkeleton    = 255 // bytes of one skeleton
	maxRun         = 19  // digits of one run: what a uint64 holds
	maxDictColumns = 256 // payload columns a Dict codes; later ones stay text
	// maxColumnText bounds the text a coded column rebuilds to: no
	// skeleton byte stands for more than 10 bytes of text ("19" for 19).
	maxColumnText = 10 * maxSkeleton
)

// runWidth[L] is the bytes 10^L − 1 needs: the width of a digit run of L
// digits, the same steps as mantissaWidth without its 2^53 cap.
var runWidth = [maxRun + 1]uint8{0, 1, 1, 2, 2, 3, 3, 3, 4, 4, 5, 5, 5, 6, 6, 7, 7, 8, 8, 8}

// Dict is the vocabulary the columns after a row's binary ones are coded
// against: per payload column, up to 255 skeletons. A skeleton is a
// column's text with every digit run replaced by its length in decimal
// ("lineitem 000000042 v0000" is "lineitem 9 v4"), so one entry stands for
// every value of that shape, and a coded column is its code byte plus the
// values of its digit runs. snakestore build learns a Dict in the scan that
// sizes the cells (Learn); after that it is read-only, and safe to share
// between goroutines.
type Dict struct {
	cols []dictColumn // by payload column index

	// The row template: Learn counts the shapes rows have, Template fixes
	// tmpl from the most common one (shapes[chosen]) or SetTemplate from a
	// catalog, and Pack and the packed decoders read it.
	shapes    []learnedShape
	shapeIDs  map[shapeKey]int
	lastShape int // 1 + the shape of the last row learned, the first one tried; 0 before any
	chosen    int
	tmpl      *Template
}

type dictColumn struct {
	codes   map[string]uint8 // skeleton → code
	entries []dictEntry      // by code
}

// dictEntry is a skeleton and its parts: the literal text around its digit
// runs (one more literal than runs; the first and last may be empty) and
// the runs' lengths.
type dictEntry struct {
	skeleton string
	lits     []string
	runs     []uint8
	runBytes int // the bytes its digit runs take coded
}

// NewDict returns an empty dictionary for Learn to fill.
func NewDict() *Dict { return &Dict{} }

// Learn admits the skeletons of row t's coded columns that d does not hold
// yet, each into its column while that has room, and returns EncodedLen(d,
// t) under the dictionary as it then stands, and EncodedLen(nil, t). An
// entry is never taken back, so a row Learn sized encodes to that length
// under the final dictionary. In the same scan it counts t's shape for the
// row template and returns it (NoShape when no template can hold t): once
// learning is done, Template picks the most common shape, and Fits(shape)
// reports that t packs under it.
func (d *Dict) Learn(t []byte) (size, plain, shape int) {
	var sh rowShape
	size, plain = encodedLen(d, t, true, &sh)
	return size, plain, d.learnShape(&sh)
}

// Entries returns how many skeletons each payload column holds, by column
// index: what build reports.
func (d *Dict) Entries() []int {
	out := make([]int, len(d.cols))
	for col, c := range d.cols {
		out[col] = len(c.entries)
	}
	return out
}

// code returns the code of skeleton sk in column col, escape when the
// column does not hold it; learn admits it first when there is room.
func (d *Dict) code(col int, sk []byte, learn bool) uint8 {
	if col < len(d.cols) {
		if c, ok := d.cols[col].codes[string(sk)]; ok {
			return c
		}
	}
	if !learn || !utf8.Valid(sk) {
		return escape
	}
	for len(d.cols) <= col {
		d.cols = append(d.cols, dictColumn{})
	}
	c := &d.cols[col]
	if len(c.entries) == maxEntries {
		return escape
	}
	e, _ := newEntry(string(sk))
	return c.add(e)
}

// add appends entry e, which c does not hold and has room for.
func (c *dictColumn) add(e dictEntry) uint8 {
	if c.codes == nil {
		c.codes = make(map[string]uint8)
	}
	code := uint8(len(c.entries))
	c.codes[e.skeleton] = code
	c.entries = append(c.entries, e)
	return code
}

// entry returns entry code of column col; ok is false when there is none.
func (d *Dict) entry(col int, code byte) (e *dictEntry, ok bool) {
	if d == nil || col >= len(d.cols) || int(code) >= len(d.cols[col].entries) {
		return nil, false
	}
	return &d.cols[col].entries[code], true
}

// newEntry checks that sk is a skeleton a build writes — at most 255
// bytes, no comma, every digit run a length from 1 to 19 spelled without a
// leading zero — and splits it into its parts.
func newEntry(sk string) (dictEntry, error) {
	e := dictEntry{skeleton: sk}
	if len(sk) > maxSkeleton {
		return e, fmt.Errorf("skeleton of %d bytes, more than %d", len(sk), maxSkeleton)
	}
	lit := 0
	for i := 0; i < len(sk); i++ {
		switch c := sk[i]; {
		case c == ',':
			return e, fmt.Errorf("skeleton %q holds a comma", sk)
		case c-'0' <= 9:
			next, L := i, 0
			for ; next < len(sk) && sk[next]-'0' <= 9 && L <= maxRun; next++ {
				L = L*10 + int(sk[next]-'0')
			}
			if L < 1 || L > maxRun || c == '0' {
				return e, fmt.Errorf("skeleton %q has a digit run of length %q", sk, sk[i:next])
			}
			e.lits = append(e.lits, sk[lit:i])
			e.runs = append(e.runs, uint8(L))
			e.runBytes += int(runWidth[L])
			lit, i = next, next-1
		}
	}
	e.lits = append(e.lits, sk[lit:])
	return e, nil
}

// skeletonOf reads the column that starts t and ends at its first comma or
// the end of t: end is its length, and its skeleton is written into sk
// with the bytes its digit runs take coded. With emit, the runs' values are
// appended to dst, each in runWidth[L] bytes little-endian. ok is false
// when the column has no skeleton: a run of more than 19 digits, or a
// skeleton longer than 255 bytes.
func skeletonOf[T text](t T, sk *[maxSkeleton]byte, dst []byte, emit bool) (s, out []byte, runBytes, end int, ok bool) {
	n := 0
	ok = true
	for end < len(t) {
		lit := end
		for end < len(t) && t[end]-'0' > 9 && t[end] != ',' {
			end++
		}
		if n+end-lit <= maxSkeleton {
			copy(sk[n:], t[lit:end])
		}
		n += end - lit
		if end == len(t) || t[end] == ',' {
			break
		}
		var v uint64
		run := end
		for ; end < len(t) && t[end]-'0' <= 9; end++ {
			v = v*10 + uint64(t[end]-'0')
		}
		L := end - run
		if L > maxRun {
			ok = false
			continue
		}
		runBytes += int(runWidth[L])
		for w := runWidth[L]; emit && w > 0; w-- {
			dst = append(dst, byte(v))
			v >>= 8
		}
		if L >= 10 {
			if n+1 < maxSkeleton {
				sk[n], sk[n+1] = '1', byte('0'+L-10)
			}
			n += 2
		} else {
			if n < maxSkeleton {
				sk[n] = byte('0' + L)
			}
			n++
		}
	}
	if !ok || n > maxSkeleton {
		return nil, dst, 0, end, false
	}
	return sk[:n], dst, runBytes, end, true
}

// matchEntry reports whether the column that starts t has the skeleton
// of e, and where the column ends; with emit, the values of its digit runs
// are appended to dst as they are read. It is the skeleton comparison
// without building the skeleton: each literal must match, each run must be
// exactly its length in digits (the literal or the column end after it
// holds no digit, so the run is maximal).
func matchEntry[T text](e *dictEntry, t T, dst []byte, emit bool) (out []byte, end int, ok bool) {
	for k, lit := range e.lits {
		if len(t)-end < len(lit) || string(t[end:end+len(lit)]) != lit {
			return dst, end, false
		}
		end += len(lit)
		if k == len(e.runs) {
			break
		}
		L := int(e.runs[k])
		if len(t)-end < L {
			return dst, end, false
		}
		var v uint64
		for run := end + L; end < run; end++ {
			if t[end]-'0' > 9 {
				return dst, end, false
			}
			v = v*10 + uint64(t[end]-'0')
		}
		for w := runWidth[L]; emit && w > 0; w-- {
			dst = append(dst, byte(v))
			v >>= 8
		}
	}
	return dst, end, end == len(t) || t[end] == ','
}

// matchEntries is how many entries a column tries one by one with
// matchEntry before it builds the skeleton and looks it up in the map: a flag
// or a ship mode fails its other entries on the first byte.
const matchEntries = 8

// lookup codes the column that starts t as payload column col under d: its
// code (escape when d does not hold its skeleton), its length, and the
// bytes its digit runs take, appended to dst with emit (dst comes back as
// it was for an escape). learn admits a skeleton d does not hold yet.
func lookup[T text](d *Dict, col int, t T, dst []byte, emit, learn bool) (out []byte, code uint8, runBytes, end int) {
	mark := len(dst)
	if col < len(d.cols) && len(d.cols[col].entries) <= matchEntries {
		for i := range d.cols[col].entries {
			e := &d.cols[col].entries[i]
			if lit := e.lits[0]; lit != "" && (len(t) == 0 || t[0] != lit[0]) {
				continue // most candidates fail on the first byte: no call
			}
			var ok bool
			if out, end, ok = matchEntry(e, t, dst, emit); ok {
				return out, uint8(i), e.runBytes, end
			}
			dst = out[:mark]
		}
	}
	var sk [maxSkeleton]byte
	s, out, runBytes, end, ok := skeletonOf(t, &sk, dst, emit)
	code = escape
	if ok && col < maxDictColumns {
		code = d.code(col, s, learn)
	}
	if code == escape {
		return out[:mark], escape, 0, end
	}
	return out, code, runBytes, end
}

// codedTail codes the columns of t from pos on, the first of them payload
// column n, against d, and returns their size: a code byte each, then the
// digit runs of a column d holds, or the text of one it does not through
// its comma (the last column has none). With emit the columns are also
// appended to dst, each scanned once: its runs are written as they are
// read, behind a code byte filled in once the column is known. learn admits
// skeletons first. With sh, the columns are counted into sh.tail, and
// sh.escaped is set when one of them has no skeleton in d.
func codedTail[T text](d *Dict, dst []byte, t T, pos, n int, emit, learn bool, sh *rowShape) ([]byte, int) {
	size := 0
	for col := n; ; col++ {
		mark := len(dst)
		if emit {
			dst = append(dst, escape)
		}
		var code uint8
		var body, end int
		dst, code, body, end = lookup(d, col, t[pos:], dst, emit, learn)
		if code == escape {
			body = min(end+1, len(t)-pos)
			if emit {
				dst = append(dst, t[pos:pos+body]...)
			}
		} else if emit {
			dst[mark] = code
		}
		if sh != nil {
			sh.tail++
			sh.escaped = sh.escaped || code == escape
		}
		size += 1 + body
		if pos += end + 1; pos > len(t) {
			return dst, size
		}
	}
}

// zeros pads a digit run to its length.
const zeros = "0000000000000000000"

// expand appends the text of entry e, its digit runs read from rec at p,
// and returns where the column's bytes end.
func expand(dst []byte, e *dictEntry, rec []byte, p int) ([]byte, int, error) {
	for k, L := range e.runs {
		dst = append(dst, e.lits[k]...)
		w := int(runWidth[L])
		if p+w > len(rec) {
			return dst, p, ErrMalformed
		}
		var v uint64
		for i := p + w - 1; i >= p; i-- {
			v = v<<8 | uint64(rec[i])
		}
		p += w
		var ok bool
		if dst, ok = appendRun(dst, v, int(L)); !ok {
			return dst, p, ErrMalformed
		}
	}
	return append(dst, e.lits[len(e.runs)]...), p, nil
}

// appendRun appends v as a digit run of L digits, zero-padded; ok is false
// when v has more digits than that.
func appendRun(dst []byte, v uint64, L int) ([]byte, bool) {
	at := len(dst)
	dst = append(dst, zeros[:L]...)
	for i := len(dst) - 1; i >= at && v > 0; i-- {
		dst[i] = byte('0' + v%10)
		v /= 10
	}
	return dst, v == 0
}

// decodeCoded appends the text of the coded columns at rec[p:], the first
// of them payload column n.
func (d *Dict) decodeCoded(dst, rec []byte, p, n int) ([]byte, error) {
	for col := n; ; col++ {
		if p >= len(rec) {
			return dst, ErrMalformed // a code byte was promised
		}
		if col > 0 {
			dst = append(dst, ',')
		}
		code := rec[p]
		p++
		if code == escape {
			end := bytes.IndexByte(rec[p:], ',')
			if end < 0 {
				return append(dst, rec[p:]...), nil
			}
			dst = append(dst, rec[p:p+end]...)
			p += end + 1
			continue
		}
		e, ok := d.entry(col, code)
		if !ok {
			return dst, ErrMalformed
		}
		var err error
		if dst, p, err = expand(dst, e, rec, p); err != nil || p == len(rec) {
			return dst, err
		}
	}
}

// codedColumn finds payload column idx in the coded columns at rec[p:],
// the first of them payload column n: an escaped column as text, the row's
// bytes from its first on; a coded one as its entry e and the offset at of
// its digit runs.
func (d *Dict) codedColumn(rec []byte, p, n, idx int) (text []byte, e *dictEntry, at int, err error) {
	for col := n; ; col++ {
		if p >= len(rec) {
			return nil, nil, 0, ErrMalformed
		}
		code := rec[p]
		p++
		if code == escape {
			if col == idx {
				return rec[p:], nil, 0, nil
			}
			end := bytes.IndexByte(rec[p:], ',')
			if end < 0 {
				return nil, nil, 0, shortRow(col+1, idx)
			}
			p += end + 1
			continue
		}
		e, ok := d.entry(col, code)
		if !ok {
			return nil, nil, 0, ErrMalformed
		}
		if col == idx {
			return nil, e, p, nil
		}
		if p += e.runBytes; p > len(rec) {
			return nil, nil, 0, ErrMalformed
		}
		if p == len(rec) {
			return nil, nil, 0, shortRow(col+1, idx)
		}
	}
}

// DictError is a catalog's dictionary that no build wrote: a column index
// out of range or listed twice, more than 255 skeletons in a column, or a
// skeleton that is too long, repeated or not a skeleton at all.
type DictError struct {
	Column int
	Reason string
}

func (e *DictError) Error() string {
	return fmt.Sprintf("row dictionary, column %d: %s", e.Column, e.Reason)
}

// dictJSON is one column of a Dict as the catalog stores it: its
// skeletons in code order.
type dictJSON struct {
	Column    int      `json:"column"`
	Skeletons []string `json:"skeletons"`
}

// MarshalJSON writes the columns that hold skeletons, in column order.
func (d *Dict) MarshalJSON() ([]byte, error) {
	out := []dictJSON{}
	for col, c := range d.cols {
		if len(c.entries) == 0 {
			continue
		}
		sk := make([]string, len(c.entries))
		for i, e := range c.entries {
			sk[i] = e.skeleton
		}
		out = append(out, dictJSON{Column: col, Skeletons: sk})
	}
	return json.Marshal(out)
}

// UnmarshalJSON reads what MarshalJSON writes and refuses, with a
// *DictError, any dictionary a build cannot have written.
func (d *Dict) UnmarshalJSON(data []byte) error {
	var in []dictJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	var nd Dict
	for _, c := range in {
		switch {
		case c.Column < 0 || c.Column >= maxDictColumns:
			return &DictError{c.Column, fmt.Sprintf("column index out of range [0,%d)", maxDictColumns)}
		case c.Column < len(nd.cols) && nd.cols[c.Column].codes != nil:
			return &DictError{c.Column, "column listed twice"}
		case len(c.Skeletons) > maxEntries:
			return &DictError{c.Column, fmt.Sprintf("%d skeletons, more than %d", len(c.Skeletons), maxEntries)}
		}
		for len(nd.cols) <= c.Column {
			nd.cols = append(nd.cols, dictColumn{})
		}
		col := &nd.cols[c.Column]
		col.codes = make(map[string]uint8, len(c.Skeletons))
		for _, sk := range c.Skeletons {
			e, err := newEntry(sk)
			if err != nil {
				return &DictError{c.Column, err.Error()}
			}
			if _, dup := col.codes[sk]; dup {
				return &DictError{c.Column, fmt.Sprintf("skeleton %q listed twice", sk)}
			}
			col.add(e)
		}
	}
	*d = nd
	return nil
}
