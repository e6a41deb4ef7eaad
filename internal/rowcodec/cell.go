package rowcodec

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// A cell is what the store keeps for one grid cell: bytes [0, fill) of the
// cell's extent, which the store does not parse. The codec says what they
// are. Under a template with the marker bit (a version 7 catalog) a cell
// has one of two forms, told apart by bit 0 of its first byte:
//
//	packed = row*               fill / W rows of Width bytes; bit 0 of
//	                            every row is 0
//	framed = marker frame*      marker 0x01, then the framed records
//	frame  = len record         len a 4-byte little-endian record length;
//	                            the record an encoded row
//
// A store with no template, or with a template without the marker bit (a
// version 4 to 6 catalog), keeps every cell as frame*, where under a
// version 6 template a record may be a tagged packed block (tag row*).
// The same bytes are the cell in /ingest's request, the delta log, the
// overlay, a fold and the base file.

// marker is the first byte of a framed cell under a marker template.
const marker = 0x01

// ErrFraming marks cell bytes whose records do not split: a length that
// runs past the cell, a header cut short, or a first byte that is neither
// a packed row's nor the marker.
var ErrFraming = errors.New("broken record framing")

var (
	errHeader    = fmt.Errorf("%w: corrupt record header", ErrFraming)
	errTruncated = fmt.Errorf("%w: truncated record", ErrFraming)
	errMarker    = fmt.Errorf("%w: first byte is neither a packed row's nor the framed-cell marker", ErrFraming)
)

// FrameSize is the bytes a record of payloadLen bytes takes framed.
func FrameSize(payloadLen int) int64 { return int64(4 + payloadLen) }

// AppendFrame appends payload to dst as one framed record.
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// FrameRecords frames records back to back: a framed cell without a
// marker, the cell of a store with no row template.
func FrameRecords(records ...[]byte) []byte {
	n := int64(0)
	for _, rec := range records {
		n += FrameSize(len(rec))
	}
	buf := make([]byte, 0, n)
	for _, rec := range records {
		buf = AppendFrame(buf, rec)
	}
	return buf
}

// nextRecord splits the first record off non-empty framed records.
func nextRecord(framed []byte) (rec, rest []byte, err error) {
	if len(framed) < 4 {
		return nil, nil, errHeader
	}
	end := 4 + uint64(binary.LittleEndian.Uint32(framed))
	if end > uint64(len(framed)) {
		return nil, nil, errTruncated
	}
	return framed[4:end:end], framed[end:], nil
}

// NextRecord splits the first record off non-empty framed records of the
// cell: its payload, and the bytes after it. The error names the cell.
func NextRecord(cell int, framed []byte) (rec, rest []byte, err error) {
	if rec, rest, err = nextRecord(framed); err != nil {
		err = fmt.Errorf("cell %d: %w", cell, err)
	}
	return rec, rest, err
}

// WalkRecords calls fn with each record of the cell's framed records.
func WalkRecords(cell int, framed []byte, fn func(cell int, rec []byte) error) error {
	for len(framed) > 0 {
		rec, rest, err := NextRecord(cell, framed)
		if err != nil {
			return err
		}
		if err := fn(cell, rec); err != nil {
			return err
		}
		framed = rest
	}
	return nil
}

// Records turns a record reader into the cell reader a store's read takes
// (FileStore.ReadPlanCellsCtx): each cell is walked as framed records.
func Records(fn func(cell int, rec []byte) error) func(cell int, framed []byte) error {
	return func(cell int, framed []byte) error { return WalkRecords(cell, framed, fn) }
}

// PutRecord appends payload to the cell as one framed record.
func PutRecord(s interface {
	AppendBytes(cell int, b []byte) error
}, cell int, payload []byte) error {
	return s.AppendBytes(cell, AppendFrame(nil, payload))
}

// Frameless reports whether d's template reserves the marker bit: cells
// are then packed rows or a marker and framed rows, and carry no frame of
// their own.
func (d *Dict) Frameless() bool { return d != nil && d.tmpl != nil && d.tmpl.marker }

// split tells the forms of a cell apart: packed rows come back as rows,
// anything else as framed records (nil, nil for an empty cell).
func (d *Dict) split(cell []byte) (rows, framed []byte, err error) {
	switch {
	case len(cell) == 0 || !d.Frameless():
		return nil, cell, nil
	case cell[0]&1 == 0:
		return cell, nil, nil
	case cell[0] == marker:
		return nil, cell[1:], nil
	}
	return nil, nil, errMarker
}

// CellRows is the number of rows the cell holds.
func CellRows(d *Dict, cell []byte) (int, error) {
	rows, framed, err := d.split(cell)
	if err != nil {
		return 0, err
	}
	if rows != nil {
		return d.tmpl.count(len(rows))
	}
	n := 0
	for len(framed) > 0 {
		rec, rest, err := nextRecord(framed)
		if err != nil {
			return 0, err
		}
		k, err := Rows(d, rec)
		if err != nil {
			return 0, err
		}
		n, framed = n+k, rest
	}
	return n, nil
}

// CheckCell is the scrub's check of one cell: the rows it holds, or why its
// bytes are not a cell of a store under d. A cell must be one of its forms,
// its framed records must split exactly, and its packed rows — packed
// cells and version 6 packed blocks — must be whole rows whose every field
// decodes. An encoded row is judged when it is read.
func CheckCell(d *Dict, cell []byte) (int, error) {
	rows, framed, err := d.split(cell)
	if err != nil {
		return 0, err
	}
	if rows != nil {
		return d.checkRows(rows)
	}
	n := 0
	for len(framed) > 0 {
		rec, rest, err := nextRecord(framed)
		if err != nil {
			return 0, err
		}
		k := 1
		if d.packed(rec) {
			if k, err = d.checkRows(rec[1:]); err != nil {
				return 0, err
			}
		}
		n, framed = n+k, rest
	}
	return n, nil
}

// DecodeCell appends the text of every row of the cell to dst, one line
// each, joined by '\n': the rows EncodeCell or build was given.
func DecodeCell(d *Dict, dst, cell []byte) ([]byte, error) {
	rows, framed, err := d.split(cell)
	switch {
	case err != nil:
		return dst, err
	case rows != nil:
		return d.decodeRows(dst, rows)
	}
	for first := true; len(framed) > 0; first = false {
		rec, rest, err := nextRecord(framed)
		if err != nil {
			return dst, err
		}
		if !first {
			dst = append(dst, '\n')
		}
		if dst, err = Decode(d, dst, rec); err != nil {
			return dst, err
		}
		framed = rest
	}
	return dst, nil
}

// AddCell adds column col of every row of the cell and returns how many
// rows that was (CellRows). A packed cell is one strided loop over its rows,
// with no step per record; a framed one adds its records one by one.
func (s *Sum) AddCell(cell []byte) (int, error) {
	if s.packed && len(cell) > 0 && cell[0]&1 == 0 {
		return s.addRows(cell)
	}
	_, framed, err := s.d.split(cell)
	if err != nil {
		return 0, err
	}
	n := 0
	for len(framed) > 0 {
		rec, rest, err := nextRecord(framed)
		if err != nil {
			return 0, err
		}
		k, err := s.Add(rec)
		if err != nil {
			return 0, err
		}
		n, framed = n+k, rest
	}
	return n, nil
}

// CellLen is the size of a cell of rows rows under d, and whether it is
// packed: packed when fits — all its rows have the template's shape — and
// the packed cell is no longer than the framed one, whose records take
// framed bytes (FrameSize of each row's EncodedLen). build and POST /ingest
// decide a cell's form by it alike.
func (d *Dict) CellLen(rows int, framed int64, fits bool) (int64, bool) {
	if d.Frameless() {
		framed++
	}
	if fits && d.Width() > 0 {
		if p := d.PackedLen(rows); p <= framed {
			return p, true
		}
	}
	return framed, false
}

// AppendMarker starts a framed cell in dst: the marker under a marker
// template, nothing otherwise.
func (d *Dict) AppendMarker(dst []byte) []byte {
	if d.Frameless() {
		dst = append(dst, marker)
	}
	return dst
}

// AppendFramedRow appends row t to dst encoded under d (Encode) and framed.
func AppendFramedRow[T text](d *Dict, dst []byte, t T) []byte {
	at := len(dst)
	dst = Encode(d, append(dst, 0, 0, 0, 0), t)
	binary.LittleEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
	return dst
}

// EncodeCell is a cell of rows as the store keeps it under d, in the form
// CellLen picks: packed when every row fits the row template and that is no
// longer, framed otherwise. So a rewrite whose rows have the shape of the
// ones it replaces — the same skeletons, decimals of the same lengths and
// fraction counts — takes the bytes the cell has.
func EncodeCell[T text](d *Dict, rows []T) []byte {
	var framed int64
	for _, row := range rows {
		framed += FrameSize(EncodedLen(d, row))
	}
	if n, packed := d.CellLen(len(rows), framed, true); packed {
		cell := make([]byte, 0, n)
		if !d.Frameless() {
			cell = append(binary.LittleEndian.AppendUint32(cell, uint32(n-4)), tagPacked)
		}
		ok := true
		for _, row := range rows {
			if cell, ok = Pack(d, cell, row); !ok {
				break
			}
		}
		if ok {
			return cell
		}
	}
	cell := d.AppendMarker(make([]byte, 0, 1+framed))
	for _, row := range rows {
		cell = AppendFramedRow(d, cell, row)
	}
	return cell
}
