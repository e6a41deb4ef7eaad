package main

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	snakes "repro"
)

// adaptiveConfig is an aggressive policy for tests: evaluate every couple
// of milliseconds, act after two consecutive over-threshold evaluations.
func adaptiveConfig() snakes.ReorgConfig {
	return snakes.ReorgConfig{
		CheckInterval:   2 * time.Millisecond,
		Smoothing:       0.01,
		MinWeight:       1,
		RegretThreshold: 1.05,
		Hysteresis:      2,
	}
}

// buildAdaptiveServed runs the real optimize/build pipeline with a
// row-query workload (class {0,2}: one x leaf, all of y) and returns a
// server with adaptive reorganization enabled, plus the catalog, base store
// path, and deployed strategy. Pages are 32 bytes so the 4x6 grid spans
// enough pages for layouts to differ physically.
func buildAdaptiveServed(t *testing.T, cfg snakes.ReorgConfig) (*server, string, string, *snakes.Strategy) {
	t.Helper()
	dir := t.TempDir()
	catPath := filepath.Join(dir, "cat.json")
	storePath := filepath.Join(dir, "facts.db")
	csvPath := filepath.Join(dir, "facts.csv")
	writeFactsCSV(t, csvPath)
	if err := cmdOptimize([]string{
		"-dims", "x:2,2 y:3,2", "-workload", "0,2:1", "-page", "32", "-catalog", catPath,
	}); err != nil {
		t.Fatal(err)
	}
	if err := cmdBuild([]string{"-catalog", catPath, "-csv", csvPath, "-store", storePath, "-frames", "8"}); err != nil {
		t.Fatal(err)
	}
	c, schema, strat, err := loadCatalog(catPath)
	if err != nil {
		t.Fatal(err)
	}
	store, err := strat.OpenFileStore(activeStorePath(c, storePath), c.BytesPer, c.PageBytes, 8, c.LoadedBytes)
	if err != nil {
		t.Fatal(err)
	}
	adm, err := snakes.NewAdmission(1024, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(store, schema, c, adm, 5*time.Second, snakes.TraceConfig{})
	if err := srv.enableReorg(catPath, storePath, 8, c, strat, cfg); err != nil {
		store.Close()
		t.Fatal(err)
	}
	return srv, catPath, storePath, strat
}

// TestServeAdaptiveReorgEndToEnd is the whole loop under live HTTP traffic:
// serve row queries, shift the stream to column queries, and let the
// background policy migrate onto the column-optimal generation while
// concurrent clients keep querying. No request may surface a 500 across the
// swap; afterwards the catalog, metrics, and responses all report
// generation 1, the old file is gone, and a cold re-open of the new
// generation shows column seeks at the new layout's analytic prediction,
// beating the old layout's.
func TestServeAdaptiveReorgEndToEnd(t *testing.T) {
	srv, catPath, storePath, oldStrat := buildAdaptiveServed(t, adaptiveConfig())
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	rctx, rcancel := context.WithCancel(context.Background())
	defer rcancel()
	go srv.reorg.Run(rctx)

	// Phase A: the built layout serves its design workload at generation 0.
	var q queryResponse
	getJSON(t, ts, "/query?where=x%3D1..2", http.StatusOK, &q)
	if q.Generation != 0 {
		t.Fatalf("pre-drift generation = %d, want 0", q.Generation)
	}

	// Phase B: the workload shifts to column queries (class {2,0}) while
	// concurrent clients hammer the same query. Every response across the
	// background swap must be a success or a typed rejection — never 500.
	colQuery := "/query?where=y%3D3..4&sum=0"
	var wg sync.WaitGroup
	stop := make(chan struct{})
	bad := make(chan string, 8)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + colQuery)
				if err != nil {
					select {
					case bad <- err.Error():
					default:
					}
					return
				}
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
				default:
					select {
					case bad <- resp.Status:
					default:
					}
					return
				}
			}
		}()
	}
	// The serving generation flips mid-migration; the policy records the
	// reorganization only once the post-swap drain and scrub return, so wait
	// for both.
	deadline := time.Now().Add(15 * time.Second)
	for (srv.generation.Load() != 1 || srv.reorg.Status().Reorgs == 0) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-bad:
		t.Fatalf("query failed during reorganization: %s", msg)
	default:
	}
	if srv.generation.Load() != 1 {
		t.Fatalf("reorganization never fired: status %+v", srv.reorg.Status())
	}

	// The policy's own accounting: one successful reorg onto generation 1.
	var rs struct {
		Enabled bool `json:"enabled"`
		Status  struct {
			Generation  int    `json:"generation"`
			Reorgs      uint64 `json:"reorgs"`
			LastOutcome string `json:"lastOutcome"`
		} `json:"status"`
	}
	getJSON(t, ts, "/reorg", http.StatusOK, &rs)
	if !rs.Enabled || rs.Status.Generation != 1 || rs.Status.Reorgs != 1 || rs.Status.LastOutcome != "success" {
		t.Errorf("reorg status = %+v, want enabled generation-1 success", rs)
	}
	getJSON(t, ts, colQuery, http.StatusOK, &q)
	if q.Generation != 1 {
		t.Errorf("post-swap query generation = %d, want 1", q.Generation)
	}

	// The old generation file is deleted only after the post-swap scrub;
	// give the background deletion a moment, then check the disk state.
	for time.Now().Before(deadline) {
		if _, err := os.Stat(storePath); os.IsNotExist(err) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := os.Stat(storePath); !os.IsNotExist(err) {
		t.Errorf("old generation file %s still present (stat err: %v)", storePath, err)
	}
	newPath := genPath(storePath, 1)
	if _, err := os.Stat(newPath); err != nil {
		t.Fatalf("new generation file: %v", err)
	}

	// The catalog on disk survived the swap atomically and points at the
	// new generation with the new strategy.
	c2, schema2, strat2, err := loadCatalog(catPath)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Generation != 1 || c2.StoreFile != filepath.Base(newPath) {
		t.Fatalf("catalog after reorg: generation %d file %q", c2.Generation, c2.StoreFile)
	}
	if activeStorePath(c2, storePath) != newPath {
		t.Fatalf("active path resolves to %s, want %s", activeStorePath(c2, storePath), newPath)
	}

	// Metrics: the swap and the class stream are all visible.
	samples, _ := scrape(t, ts.URL)
	if got := samples[`snakestore_reorg_total{outcome="success"}`]; got != 1 {
		t.Errorf(`reorg_total{success} = %v, want 1`, got)
	}
	if got := samples["snakestore_store_generation"]; got != 1 {
		t.Errorf("store_generation = %v, want 1", got)
	}
	if got := samples[`snakestore_query_class_observed_total{class="2,0"}`]; got <= 0 {
		t.Errorf(`query_class_observed_total{class="2,0"} = %v, want positive`, got)
	}
	if got := samples["snakestore_reorg_migration_seconds_count"]; got != 1 {
		t.Errorf("reorg_migration_seconds_count = %v, want 1", got)
	}

	// Shut the daemon down, then re-open the new generation cold: observed
	// column seeks must match the new layout's analytic prediction and beat
	// the old layout's.
	ts.Close()
	rcancel()
	if err := srv.closeStore(); err != nil {
		t.Fatal(err)
	}
	store, err := strat2.OpenFileStore(newPath, c2.BytesPer, c2.PageBytes, 8, c2.LoadedBytes)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	region, err := parseRegion(schema2, schemaDims(c2), []string{"y=3..4"})
	if err != nil {
		t.Fatal(err)
	}
	pred := store.Layout().Query(region)
	var tally snakes.PoolTally
	qctx := snakes.WithPoolTally(context.Background(), &tally)
	var records int64
	if err := readRegion(qctx, store, region, func(cell int, rec []byte) error {
		records++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if records == 0 {
		t.Fatal("column query returned no records after reorg")
	}
	if got := tally.Seeks(); got != pred.Seeks {
		t.Errorf("cold column query: observed %d seeks, new layout predicts %d", got, pred.Seeks)
	}
	oldLayout, err := oldStrat.Pack(c2.BytesPer, int64(c2.PageBytes))
	if err != nil {
		t.Fatal(err)
	}
	if oldPred := oldLayout.Query(region); pred.Seeks >= oldPred.Seeks {
		t.Errorf("new layout predicts %d seeks for the column query, old predicted %d — no improvement", pred.Seeks, oldPred.Seeks)
	}
}

// TestServeReorgCrashRecovery simulates a crash in the one window the swap
// protocol leaves two generations on disk: after the catalog atomically
// points at generation 1 but before the generation-0 file is deleted. On
// restart the catalog must resolve to the new generation, startup cleanup
// must remove the stale file, and verify/query must run clean.
func TestServeReorgCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	catPath := filepath.Join(dir, "cat.json")
	storePath := filepath.Join(dir, "facts.db")
	csvPath := filepath.Join(dir, "facts.csv")
	writeFactsCSV(t, csvPath)
	if err := cmdOptimize([]string{
		"-dims", "x:2,2 y:3,2", "-workload", "0,2:1", "-page", "32", "-catalog", catPath,
	}); err != nil {
		t.Fatal(err)
	}
	if err := cmdBuild([]string{"-catalog", catPath, "-csv", csvPath, "-store", storePath, "-frames", "8"}); err != nil {
		t.Fatal(err)
	}
	c, schema, strat, err := loadCatalog(catPath)
	if err != nil {
		t.Fatal(err)
	}
	store, err := strat.OpenFileStore(storePath, c.BytesPer, c.PageBytes, 8, c.LoadedBytes)
	if err != nil {
		t.Fatal(err)
	}
	stratB, err := snakes.Optimize(schema.ClassWorkload(snakes.Class{2, 0}))
	if err != nil {
		t.Fatal(err)
	}
	newPath := genPath(storePath, 1)
	dst, _, err := stratB.MigrateCtx(context.Background(), store, newPath, 8, snakes.MigrateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	stratJSON, err := snakes.MarshalStrategy(stratB)
	if err != nil {
		t.Fatal(err)
	}
	c.Version = catalogVersion
	c.Strategy = stratJSON
	c.Generation = 1
	c.StoreFile = filepath.Base(newPath)
	c.LoadedBytes = dst.LoadedBytes()
	if err := writeCatalog(catPath, c); err != nil {
		t.Fatal(err)
	}
	// "Crash": both generations flushed and closed, old file never deleted.
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart-time resolution: the catalog picks generation 1 and cleanup
	// sweeps the stale generation-0 file.
	c2, _, _, err := loadCatalog(catPath)
	if err != nil {
		t.Fatal(err)
	}
	active := activeStorePath(c2, storePath)
	if active != newPath {
		t.Fatalf("active store resolves to %s, want %s", active, newPath)
	}
	removed, err := cleanStaleGenerations(storePath, active)
	if err != nil {
		t.Fatal(err)
	}
	// Both the stale generation-0 file and its parity sidecar (written by
	// build) are swept; the active generation and its sidecar survive.
	want := map[string]bool{storePath: true, snakes.ParityPath(storePath): true}
	if len(removed) != len(want) {
		t.Fatalf("stale cleanup removed %v, want exactly %v", removed, want)
	}
	for _, p := range removed {
		if !want[p] {
			t.Fatalf("stale cleanup removed unexpected %s", p)
		}
	}
	if _, err := os.Stat(storePath); !os.IsNotExist(err) {
		t.Errorf("stale generation-0 file survived cleanup (stat err: %v)", err)
	}
	if _, err := os.Stat(newPath); err != nil {
		t.Errorf("active generation file missing after cleanup: %v", err)
	}

	// The stock subcommands resolve the active generation transparently.
	if err := cmdVerify([]string{"-catalog", catPath, "-store", storePath}); err != nil {
		t.Errorf("verify after crash recovery: %v", err)
	}
	if err := cmdQuery([]string{"-catalog", catPath, "-store", storePath, "-sum", "0"}); err != nil {
		t.Errorf("query after crash recovery: %v", err)
	}
}

// TestServeReorgFailureKeepsServing drives both failure modes of a
// triggered migration — a cancelled copy and a broken destination — and
// checks the daemon stays on generation 0 with no partial files, keeps
// answering queries, and reports the failures through /reorg and /metrics.
func TestServeReorgFailureKeepsServing(t *testing.T) {
	cfg := adaptiveConfig()
	cfg.Hysteresis = 1
	srv, _, storePath, _ := buildAdaptiveServed(t, cfg)
	defer srv.closeStore()
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	// Shift the observed stream so the policy wants to act.
	for i := 0; i < 50; i++ {
		getJSON(t, ts, "/query?where=y%3D1..2", http.StatusOK, nil)
	}

	// A cancelled trigger aborts before any output file exists.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srv.reorg.Trigger(cancelled, true); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled trigger: err = %v, want context.Canceled", err)
	}
	st := srv.reorg.Status()
	if st.Generation != 0 || st.LastOutcome != "canceled" {
		t.Errorf("status after cancelled trigger = %+v, want generation 0, canceled", st)
	}

	// Break the next generation's path: the migration must fail, the swap
	// must not happen, and nothing partial may remain.
	newPath := genPath(storePath, 1)
	if err := os.Mkdir(newPath, 0o755); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/reorg", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("POST /reorg over a broken destination = %d, want 500", resp.StatusCode)
	}
	var ebody struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ebody); err != nil || ebody.Error == "" {
		t.Errorf("failed reorg error body = %+v (decode err %v)", ebody, err)
	}

	st = srv.reorg.Status()
	if st.Generation != 0 || st.Failures < 1 || st.LastOutcome != "failed" || st.LastError == "" {
		t.Errorf("status after failed migration = %+v, want generation 0 with a recorded failure", st)
	}
	var q queryResponse
	getJSON(t, ts, "/query?where=y%3D1..2&sum=0", http.StatusOK, &q)
	if q.Generation != 0 {
		t.Errorf("query generation after failed reorg = %d, want 0", q.Generation)
	}
	samples, _ := scrape(t, ts.URL)
	if got := samples[`snakestore_reorg_total{outcome="failed"}`]; got < 1 {
		t.Errorf(`reorg_total{failed} = %v, want >= 1`, got)
	}
	if got := samples[`snakestore_reorg_total{outcome="canceled"}`]; got != 1 {
		t.Errorf(`reorg_total{canceled} = %v, want 1`, got)
	}
	if got := samples["snakestore_store_generation"]; got != 0 {
		t.Errorf("store_generation = %v, want 0", got)
	}

	// No partial generation files: the base store, the blocking directory,
	// and nothing else matching the generation pattern.
	entries, err := os.ReadDir(filepath.Dir(storePath))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, filepath.Base(storePath)) {
			continue
		}
		switch filepath.Join(filepath.Dir(storePath), name) {
		case storePath, newPath, snakes.ParityPath(storePath):
		default:
			t.Errorf("unexpected store artifact %s after failed migrations", name)
		}
	}
}
