package storage

import (
	"context"
	"path/filepath"
	"testing"
)

// benchPool is a pool of the given frames over a checksummed file of the
// given number of 8 KiB pages, each written with a full trailer, so a miss
// pays the read and the CRC a served miss pays.
func benchPool(b *testing.B, pages int64, frames int) *BufferPool {
	b.Helper()
	pf, err := CreatePageFile(filepath.Join(b.TempDir(), "bench.db"), 8192, pages)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { pf.Close() })
	cf, err := NewChecksumFile(pf)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, cf.PageSize())
	for p := int64(0); p < pages; p++ {
		buf[0] = byte(p)
		if err := cf.WritePage(p, buf); err != nil {
			b.Fatal(err)
		}
	}
	bp, err := NewBufferPool(cf, frames)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { bp.Close() })
	return bp
}

// BenchmarkPoolHit is a warm one-page read: the page is resident.
func BenchmarkPoolHit(b *testing.B) {
	bp := benchPool(b, 1, 4)
	ctx := context.Background()
	var tally PoolTally
	b.ReportAllocs()
	for b.Loop() {
		fr, err := bp.get(ctx, &tally, 0)
		if err != nil {
			b.Fatal(err)
		}
		bp.unpin(fr)
	}
}

// BenchmarkPoolMiss is a one-page miss on a full pool: evict, read one page,
// verify its trailer.
func BenchmarkPoolMiss(b *testing.B) {
	const pages = 64
	bp := benchPool(b, pages, 4)
	ctx := context.Background()
	var tally PoolTally
	next := int64(0)
	b.ReportAllocs()
	for b.Loop() {
		fr, err := bp.get(ctx, &tally, next)
		if err != nil {
			b.Fatal(err)
		}
		bp.unpin(fr)
		next = (next + 1) % pages
	}
}

// BenchmarkPoolSpanMiss is a 32-page window of misses on a full pool: 32
// evictions, one read of 32 pages, 32 trailer checks.
func BenchmarkPoolSpanMiss(b *testing.B) {
	const pages = 4 * MaxSpanPages
	bp := benchPool(b, pages, MaxSpanPages)
	ctx := context.Background()
	var tally PoolTally
	var sc spanScratch
	next := int64(0)
	b.ReportAllocs()
	for b.Loop() {
		if err := bp.getSpan(ctx, &tally, next, MaxSpanPages, &sc); err != nil {
			b.Fatal(err)
		}
		bp.unpinSpan(sc.frames)
		next = (next + MaxSpanPages) % pages
	}
}
