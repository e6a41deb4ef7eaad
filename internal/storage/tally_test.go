package storage

import (
	"context"
	"sync"
	"testing"

	"repro/internal/linear"
)

// TestSumStatsColdMatchesAnalytic: on a cold pool over a fully packed
// store, a query's per-request misses equal the analytic page count and
// its observed seeks equal the analytic seek count — the live counterpart
// of the paper's cost model.
func TestSumStatsColdMatchesAnalytic(t *testing.T) {
	regions := []linear.Region{
		{{Lo: 0, Hi: 4}, {Lo: 0, Hi: 4}}, // full grid: one contiguous run
		{{Lo: 1, Hi: 2}, {Lo: 0, Hi: 4}}, // one row of the row-major order
		{{Lo: 0, Hi: 4}, {Lo: 1, Hi: 2}}, // one column: fragmented
	}
	for _, r := range regions {
		// Build, then reopen: loading goes through the pool too, so only a
		// reopened store reads cold.
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
		var tally PoolTally
		ctx := WithPoolTally(context.Background(), &tally)
		if err := readRegion(ctx, fs, r, func(int, []byte) error { return nil }); err != nil {
			t.Fatal(err)
		}
		if pred.Pages == 0 {
			t.Fatalf("region %v: analytic model predicts no pages", r)
		}
		if got := tally.Stats().Misses; got != pred.Pages {
			t.Errorf("region %v: cold misses = %d, want analytic pages %d", r, got, pred.Pages)
		}
		if got := tally.Seeks(); got != pred.Seeks {
			t.Errorf("region %v: observed seeks = %d, want analytic seeks %d", r, got, pred.Seeks)
		}
		fs.Close()
	}
}

// TestSumStatsIsolatedUnderConcurrency: per-query stats must be identical
// whether a query runs alone or beside heavy concurrent traffic. Before
// per-request tallies, SumCtx diffed the shared pool counters and
// concurrent queries cross-contaminated each other's numbers.
func TestSumStatsIsolatedUnderConcurrency(t *testing.T) {
	fs, _, _, _ := buildFileStore(t, 64)
	defer fs.Close()
	a := linear.Region{{Lo: 0, Hi: 4}, {Lo: 0, Hi: 2}}
	b := linear.Region{{Lo: 0, Hi: 4}, {Lo: 2, Hi: 4}}

	// Warm the whole store, then measure each query solo.
	if _, _, err := sumRegion(context.Background(), fs, linear.Region{{Lo: 0, Hi: 4}, {Lo: 0, Hi: 4}}, decodeF64); err != nil {
		t.Fatal(err)
	}
	_, soloA, err := sumRegion(context.Background(), fs, a, decodeF64)
	if err != nil {
		t.Fatal(err)
	}
	if soloA.Hits == 0 || soloA.Misses != 0 {
		t.Fatalf("warm solo stats = %+v, want pure hits", soloA)
	}

	// Hammer region b from several goroutines while re-measuring a: the
	// reported stats for a must not move.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := sumRegion(context.Background(), fs, b, decodeF64); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		_, got, err := sumRegion(context.Background(), fs, a, decodeF64)
		if err != nil {
			t.Fatal(err)
		}
		if got != soloA {
			t.Fatalf("concurrent run %d: stats = %+v, want solo stats %+v", i, got, soloA)
		}
	}
	close(stop)
	wg.Wait()
}

// TestResetStatsCannotCorruptQueryStats: ResetStats racing in-flight
// queries used to yield negative deltas; with request-local tallies every
// reported field stays non-negative and exact.
func TestResetStatsCannotCorruptQueryStats(t *testing.T) {
	fs, _, _, _ := buildFileStore(t, 64)
	defer fs.Close()
	all := linear.Region{{Lo: 0, Hi: 4}, {Lo: 0, Hi: 4}}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				fs.Pool().ResetStats()
			}
		}
	}()
	for i := 0; i < 100; i++ {
		_, st, err := sumRegion(context.Background(), fs, all, decodeF64)
		if err != nil {
			t.Fatal(err)
		}
		if st.Hits < 0 || st.Misses < 0 || st.Evictions < 0 || st.Writes < 0 || st.Retries < 0 || st.SingleFlightWaits < 0 {
			t.Fatalf("run %d: negative stats %+v under concurrent ResetStats", i, st)
		}
		if st.Hits+st.Misses == 0 {
			t.Fatalf("run %d: query reported no page traffic at all", i)
		}
	}
	close(stop)
	wg.Wait()
}

// TestTallyCountsEvictionTraffic: a miss that forces an eviction charges
// the eviction (and any write-back) to the requesting query's tally.
func TestTallyCountsEvictionTraffic(t *testing.T) {
	fs, _, _, _ := buildFileStore(t, 1) // single frame: every new page evicts
	defer fs.Close()
	all := linear.Region{{Lo: 0, Hi: 4}, {Lo: 0, Hi: 4}}
	_, st, err := sumRegion(context.Background(), fs, all, decodeF64)
	if err != nil {
		t.Fatal(err)
	}
	if st.Misses == 0 || st.Evictions == 0 {
		t.Errorf("single-frame scan stats = %+v, want misses and evictions attributed", st)
	}
}
