package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
)

// PageTrailerSize is the per-page overhead of the checksum trailer: a
// 4-byte magic and a 4-byte CRC32C over the data region. Layouts built for
// checksummed files (NewFileLayout) shrink every page's usable bytes by
// this much so analytic page counts match physical ones.
const PageTrailerSize = 8

// pageMagic marks a page whose trailer has been written ("SNK1").
const pageMagic uint32 = 0x31_4B_4E_53

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ChecksumFile guards every page of an inner PagedFile with a CRC32C
// trailer. Its logical page size is the inner page size minus
// PageTrailerSize: WritePage stamps the trailer, ReadPage verifies it and
// returns a CorruptPageError on any mismatch. A page that is entirely zero
// (as produced by CreatePageFile) is accepted as never-written, so freshly
// created files read back as zeros without a full initialization pass.
// ChecksumFile is safe for concurrent use when its inner file is: each
// operation works on pooled per-call scratch, never shared state.
type ChecksumFile struct {
	inner       PagedFile
	scratch     sync.Pool // *[]byte, one physical page each
	spanScratch sync.Pool // *[]byte, MaxSpanPages physical pages each
}

// NewChecksumFile wraps inner, whose page size must exceed the trailer.
func NewChecksumFile(inner PagedFile) (*ChecksumFile, error) {
	if inner.PageSize() <= PageTrailerSize {
		return nil, fmt.Errorf("storage: %d-byte pages cannot hold the %d-byte checksum trailer",
			inner.PageSize(), PageTrailerSize)
	}
	cf := &ChecksumFile{inner: inner}
	cf.scratch.New = func() any {
		b := make([]byte, inner.PageSize())
		return &b
	}
	cf.spanScratch.New = func() any {
		b := make([]byte, MaxSpanPages*inner.PageSize())
		return &b
	}
	return cf, nil
}

// PageSize returns the usable (data-region) bytes per page.
func (cf *ChecksumFile) PageSize() int { return cf.inner.PageSize() - PageTrailerSize }

// Pages returns the number of pages in the file.
func (cf *ChecksumFile) Pages() int64 { return cf.inner.Pages() }

// ReadPage reads and verifies one page, filling buf with its data region.
func (cf *ChecksumFile) ReadPage(page int64, buf []byte) error {
	usable := cf.PageSize()
	if len(buf) != usable {
		return fmt.Errorf("storage: read buffer is %d bytes, want %d", len(buf), usable)
	}
	sp := cf.scratch.Get().(*[]byte)
	defer cf.scratch.Put(sp)
	phys := *sp
	if err := cf.inner.ReadPage(page, phys); err != nil {
		return err
	}
	return cf.verifyInto(page, phys, buf)
}

// verifyInto checks one physical page image and copies its data region into
// buf (of exactly PageSize bytes). Shared by the per-page and span read
// paths so both report identical CorruptPageError detail.
func (cf *ChecksumFile) verifyInto(page int64, phys, buf []byte) error {
	usable := cf.PageSize()
	magic := binary.LittleEndian.Uint32(phys[usable:])
	sum := binary.LittleEndian.Uint32(phys[usable+4:])
	if magic != pageMagic {
		// A never-written page is all zeros, trailer included; anything
		// else with a missing magic is damage (e.g. a torn write that only
		// reached the data region).
		if magic == 0 && sum == 0 && allZero(phys[:usable]) {
			copy(buf, phys[:usable])
			return nil
		}
		return &CorruptPageError{Page: page, Reason: fmt.Sprintf("bad page magic %#08x", magic)}
	}
	if got := crc32.Checksum(phys[:usable], castagnoli); got != sum {
		return &CorruptPageError{Page: page,
			Reason: fmt.Sprintf("checksum mismatch: stored %#08x, computed %#08x", sum, got)}
	}
	copy(buf, phys[:usable])
	return nil
}

// ReadPageSpan reads and verifies len(bufs) consecutive pages starting at
// page, scattering page+i's data region into bufs[i]. When the inner file
// can bulk-read (BulkReader — the real PageFile), the whole span is fetched
// with one positioned read into pooled scratch; otherwise it degrades to
// per-page ReadPage calls, which keeps fault injectors and per-page test
// wrappers observing exactly the reads they expect. The first verification
// failure is returned as that page's CorruptPageError.
func (cf *ChecksumFile) ReadPageSpan(page int64, bufs [][]byte) error {
	if len(bufs) == 0 {
		return nil
	}
	usable := cf.PageSize()
	br, ok := cf.inner.(BulkReader)
	if !ok || len(bufs) == 1 {
		for i, buf := range bufs {
			if err := cf.ReadPage(page+int64(i), buf); err != nil {
				return err
			}
		}
		return nil
	}
	for _, buf := range bufs {
		if len(buf) != usable {
			return fmt.Errorf("storage: span read buffer is %d bytes, want %d", len(buf), usable)
		}
	}
	phys := cf.inner.PageSize()
	need := len(bufs) * phys
	var scratch []byte
	if len(bufs) <= MaxSpanPages {
		sp := cf.spanScratch.Get().(*[]byte)
		defer cf.spanScratch.Put(sp)
		scratch = (*sp)[:need]
	} else {
		scratch = make([]byte, need) // oversized span: caller ignored MaxSpanPages
	}
	if err := br.ReadPages(page, scratch); err != nil {
		return err
	}
	for i, buf := range bufs {
		if err := cf.verifyInto(page+int64(i), scratch[i*phys:(i+1)*phys], buf); err != nil {
			return err
		}
	}
	return nil
}

// WritePage stamps the trailer and writes the full physical page.
func (cf *ChecksumFile) WritePage(page int64, buf []byte) error {
	usable := cf.PageSize()
	if len(buf) != usable {
		return fmt.Errorf("storage: write buffer is %d bytes, want %d", len(buf), usable)
	}
	sp := cf.scratch.Get().(*[]byte)
	defer cf.scratch.Put(sp)
	phys := *sp
	copy(phys, buf)
	binary.LittleEndian.PutUint32(phys[usable:], pageMagic)
	binary.LittleEndian.PutUint32(phys[usable+4:], crc32.Checksum(phys[:usable], castagnoli))
	return cf.inner.WritePage(page, phys)
}

// Sync flushes the inner file.
func (cf *ChecksumFile) Sync() error { return cf.inner.Sync() }

// Close closes the inner file.
func (cf *ChecksumFile) Close() error { return cf.inner.Close() }

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}
