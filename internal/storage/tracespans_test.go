package storage

import (
	"context"
	"testing"

	"repro/internal/linear"
	"repro/internal/trace"
)

func attrVal(t *testing.T, sp trace.Span, key string) int64 {
	t.Helper()
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	t.Fatalf("span %+v has no attr %q", sp, key)
	return 0
}

// TestColdQueryFragmentSpansMatchTallyAndAnalytic is the tracing
// counterpart of TestSumStatsColdMatchesAnalytic: on a cold pool, a traced
// query's fragment spans must account for exactly the traffic the tally
// observed and the analytic model predicted — one fragment span per seek
// run, page_load children (one per span read) that load the analytic pages
// between them, and per-fragment tallies whose sums equal both the tally
// totals and the analytic prediction.
func TestColdQueryFragmentSpansMatchTallyAndAnalytic(t *testing.T) {
	regions := []linear.Region{
		{{Lo: 0, Hi: 4}, {Lo: 0, Hi: 4}}, // full grid: one contiguous run
		{{Lo: 1, Hi: 2}, {Lo: 0, Hi: 4}}, // one row of the row-major order
		{{Lo: 0, Hi: 4}, {Lo: 1, Hi: 2}}, // one column: fragmented
	}
	for _, r := range regions {
		built, _, path, bytes := buildFileStore(t, 64)
		o := built.Layout().Order()
		loaded := built.LoadedBytes()
		if err := built.Close(); err != nil {
			t.Fatal(err)
		}
		fs, err := OpenFileStore(path, o, bytes, 64, 64, loaded)
		if err != nil {
			t.Fatal(err)
		}
		pred := fs.Layout().Query(r)

		rec := trace.NewRecorder(trace.Config{SampleEvery: 1})
		ctx, tr := rec.Start(context.Background(), "query")
		if tr == nil {
			t.Fatal("recorder did not trace")
		}
		var tally PoolTally
		ctx = WithPoolTally(ctx, &tally)
		if err := readRegion(ctx, fs, r, func(int, []byte) error { return nil }); err != nil {
			t.Fatal(err)
		}
		tr.Finish(nil)

		var frags, loads int64
		var spanSeeks, spanPages, spanHits int64
		for _, sp := range tr.Spans() {
			switch sp.Kind {
			case trace.KindFragment:
				frags++
				spanSeeks += attrVal(t, sp, "seeks")
				spanPages += attrVal(t, sp, "pages_read")
				spanHits += attrVal(t, sp, "pool_hits")
			case trace.KindPageLoad:
				loads += attrVal(t, sp, "pages")
			}
		}
		if frags != pred.Seeks {
			t.Errorf("region %v: %d fragment spans, want one per analytic seek run %d", r, frags, pred.Seeks)
		}
		if spanSeeks != tally.Seeks() || spanSeeks != pred.Seeks {
			t.Errorf("region %v: fragment seek attrs sum to %d, tally %d, analytic %d",
				r, spanSeeks, tally.Seeks(), pred.Seeks)
		}
		if m := tally.Stats().Misses; spanPages != m || spanPages != pred.Pages {
			t.Errorf("region %v: fragment pages_read sum to %d, tally misses %d, analytic pages %d",
				r, spanPages, m, pred.Pages)
		}
		if loads != pred.Pages {
			t.Errorf("region %v: page_load spans load %d pages, analytic %d", r, loads, pred.Pages)
		}
		if spanHits != tally.Stats().Hits {
			t.Errorf("region %v: fragment pool_hits sum to %d, tally hits %d", r, spanHits, tally.Stats().Hits)
		}
		fs.Close()
	}
}

// TestTracedMigrationRecordsCopyAndFlush: a migration under a trace leaves
// a copy span (with the cell count) and a flush span behind.
func TestTracedMigrationRecordsCopyAndFlush(t *testing.T) {
	fs, _, path, _ := buildFileStore(t, 64)
	defer fs.Close()
	rec := trace.NewRecorder(trace.Config{SampleEvery: 1})
	ctx, tr := rec.Start(context.Background(), "migrate")
	dst, err := MigrateCtx(ctx, fs, path+".new", fs.Layout().Order(), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	tr.Finish(nil)
	var copies, flushes int
	for _, sp := range tr.Spans() {
		switch sp.Kind {
		case trace.KindCopy:
			copies++
			if got := attrVal(t, sp, "cells"); got != int64(fs.Layout().Order().Len()) {
				t.Errorf("copy span cells = %d, want %d", got, fs.Layout().Order().Len())
			}
		case trace.KindFlush:
			flushes++
		}
	}
	if copies != 1 || flushes != 1 {
		t.Errorf("migration trace has %d copy and %d flush spans, want 1 and 1", copies, flushes)
	}
}

// TestUntracedReadPathZeroAlloc is the acceptance gate for the tracing
// hooks: with no trace on the context, a warm pool read allocates nothing.
// The assertion runs the pool's hot path under testing.Benchmark and
// requires zero allocs/op, so any future hook that allocates on the
// disabled path fails this test rather than a profile review.
func TestUntracedReadPathZeroAlloc(t *testing.T) {
	fs, _, _, _ := buildFileStore(t, 64)
	defer fs.Close()
	all := linear.Region{{Lo: 0, Hi: 4}, {Lo: 0, Hi: 4}}
	// Warm every page so the benchmark measures pure hits.
	if err := readRegion(context.Background(), fs, all, func(int, []byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	buf := make([]byte, 64)
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := fs.pool.ReadAtCtx(ctx, buf, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	if a := res.AllocsPerOp(); a != 0 {
		t.Errorf("untraced warm read allocates %d objects/op, want 0", a)
	}
}
