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
// PageTrailerSize: WritePage stamps the trailer, ReadPages verifies it and
// returns a CorruptPageError on any mismatch. A page that is entirely zero
// (as produced by CreatePageFile) is accepted as never-written, so freshly
// created files read back as zeros without a full initialization pass.
// ChecksumFile is safe for concurrent use when its inner file is: each
// operation works on pooled per-call scratch, never shared state.
type ChecksumFile struct {
	inner PagedFile
	page  sync.Pool // *physSpan of one physical page: one-page reads, writes
	span  sync.Pool // *physSpan of MaxSpanPages physical pages
}

// physSpan is ChecksumFile's pooled scratch: physical pages, and the
// one-element list that hands a prefix of them to the inner file (a list
// made at the call would escape to the heap on every read). One-page reads
// and writes (a build's, the scrub's, write-back's) take page-sized scratch:
// with one 32-page pool, the writers beside readers in a serving daemon held
// about 0.6 MiB more resident.
type physSpan struct {
	img []byte
	arg [1][]byte
}

// NewChecksumFile wraps inner, whose page size must exceed the trailer.
func NewChecksumFile(inner PagedFile) (*ChecksumFile, error) {
	if inner.PageSize() <= PageTrailerSize {
		return nil, fmt.Errorf("storage: %d-byte pages cannot hold the %d-byte checksum trailer",
			inner.PageSize(), PageTrailerSize)
	}
	cf := &ChecksumFile{inner: inner}
	cf.page.New = func() any { return &physSpan{img: make([]byte, inner.PageSize())} }
	cf.span.New = func() any { return &physSpan{img: make([]byte, MaxSpanPages*inner.PageSize())} }
	return cf, nil
}

// PageSize returns the usable (data-region) bytes per page.
func (cf *ChecksumFile) PageSize() int { return cf.inner.PageSize() - PageTrailerSize }

// Pages returns the number of pages in the file.
func (cf *ChecksumFile) Pages() int64 { return cf.inner.Pages() }

// ReadPage reads and verifies one page, filling buf with its data region.
func (cf *ChecksumFile) ReadPage(page int64, buf []byte) error {
	return cf.ReadPages(page, buf)
}

// ReadPages reads and verifies the consecutive pages starting at page,
// filling bufs (each a whole number of PageSize units) with their data
// regions. The span, at most MaxSpanPages pages, comes off the inner file in
// one call into pooled scratch; the first page that fails verification is
// returned as its CorruptPageError.
func (cf *ChecksumFile) ReadPages(page int64, bufs ...[]byte) error {
	usable := cf.PageSize()
	total := 0
	for _, buf := range bufs {
		if len(buf) != usable && len(buf)%usable != 0 { // one page a buf is the pool's case: no division
			return fmt.Errorf("storage: read buffer is %d bytes, not a multiple of the %d-byte page", len(buf), usable)
		}
		total += len(buf)
	}
	n := total / usable
	if n > MaxSpanPages {
		return fmt.Errorf("storage: a read of %d pages exceeds the %d-page span", n, MaxSpanPages)
	}
	phys := cf.inner.PageSize()
	pool := &cf.page
	if n > 1 {
		pool = &cf.span
	}
	sp := pool.Get().(*physSpan)
	defer pool.Put(sp)
	img := sp.img[:n*phys]
	sp.arg[0] = img
	if err := cf.inner.ReadPages(page, sp.arg[:]...); err != nil {
		return err
	}
	for _, buf := range bufs {
		for ; len(buf) > 0; buf = buf[usable:] {
			if err := cf.verifyInto(page, img[:phys], buf[:usable]); err != nil {
				return err
			}
			page++
			img = img[phys:]
		}
	}
	return nil
}

// verifyInto checks one physical page image and copies its data region into
// buf (of exactly PageSize bytes).
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

// WritePage stamps the trailer and writes the full physical page.
func (cf *ChecksumFile) WritePage(page int64, buf []byte) error {
	usable := cf.PageSize()
	if len(buf) != usable {
		return fmt.Errorf("storage: write buffer is %d bytes, want %d", len(buf), usable)
	}
	sp := cf.page.Get().(*physSpan)
	defer cf.page.Put(sp)
	phys := sp.img
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
