package main

import (
	"context"
	"encoding/json"
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

// adaptiveConfig is an aggressive policy for tests: act after two
// consecutive over-threshold evaluations.
func adaptiveConfig() snakes.ReorgConfig {
	return snakes.ReorgConfig{
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
	if err := srv.enableReorg(catPath, storePath, 8, 64, c, strat, cfg); err != nil {
		store.Close()
		t.Fatal(err)
	}
	return srv, catPath, storePath, strat
}

// TestServeAdaptiveReorgEndToEnd is the whole loop under live HTTP traffic:
// serve row queries, shift the stream to column queries, and let the
// maintainer's policy step decide and its ticks migrate onto the
// column-optimal generation while concurrent clients keep querying. No request may surface a 500 across the
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
	srv.startMaintainer(rctx, 2*time.Millisecond, 2*time.Millisecond)

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
	srv, catPath, storePath, _ := buildAdaptiveServed(t, adaptiveConfig())
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	for i := 0; i < 50; i++ {
		getJSON(t, ts, "/query?where=y%3D3..4", http.StatusOK, nil)
	}
	// Keep generation 0's files as they are before the reorganization: a
	// crash after the catalog commit and before their deletion leaves them.
	stale := map[string][]byte{}
	for _, p := range []string{storePath, snakes.ParityPath(storePath)} {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		stale[p] = b
	}
	if st := forceReorg(t, srv, ts); st.Generation != 1 || st.LastOutcome != "success" {
		t.Fatalf("forced reorg: %+v", st)
	}
	newPath := genPath(storePath, 1)
	// "Crash": the daemon is gone, and both generations are on disk.
	ts.Close()
	if err := srv.closeStore(); err != nil {
		t.Fatal(err)
	}
	for p, b := range stale {
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
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
// triggered migration — a copy cancelled by a drain between its steps and a
// broken destination — and checks the daemon stays on generation 0 with no
// partial files, keeps answering queries, and reports the failures through
// /reorg and /metrics.
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

	// A drain between the copy's steps cancels it and removes its output.
	drainMidMigration(t, srv, ts, storePath)

	// Break the next generation's path: the migration must fail to start,
	// the POST answers 500, the swap must not happen, and nothing partial
	// may remain.
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

	st := srv.reorg.Status()
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

// forceReorg posts a forced reorganization, which answers 202 with the copy
// still to run, then ticks the maintainer until the reorganization is over;
// it returns the reorganizer's status.
func forceReorg(t *testing.T, srv *server, ts *httptest.Server) snakes.ReorgStatus {
	t.Helper()
	postJSON(t, ts, "/reorg?force=1", nil, http.StatusAccepted, nil)
	for srv.reorg.Status().InProgress {
		srv.maintainTick(context.Background())
	}
	return srv.reorg.Status()
}

// reorgCounts scrapes the reorganization outcome counters and the number of
// migration durations observed.
func reorgCounts(t *testing.T, ts *httptest.Server) (success, failed, canceled, timed float64) {
	t.Helper()
	m, _ := scrape(t, ts.URL)
	return m[`snakestore_reorg_total{outcome="success"}`], m[`snakestore_reorg_total{outcome="failed"}`],
		m[`snakestore_reorg_total{outcome="canceled"}`], m["snakestore_reorg_migration_seconds_count"]
}

// assertNoNextGeneration fails if generation gen's store file or parity
// sidecar exists.
func assertNoNextGeneration(t *testing.T, storePath string, gen int) {
	t.Helper()
	for _, p := range []string{genPath(storePath, gen), snakes.ParityPath(genPath(storePath, gen))} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("%s is on disk after an aborted reorganization (stat err: %v)", p, err)
		}
	}
}

// awaitReorgOver waits for the reorganizer to leave its in-progress state.
func awaitReorgOver(t *testing.T, srv *server) snakes.ReorgStatus {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if st := srv.reorg.Status(); !st.InProgress {
			return st
		}
	}
	t.Fatalf("reorganization still in progress: %+v", srv.reorg.Status())
	return snakes.ReorgStatus{}
}

// drainMidMigration runs the maintainer's loop at a tick an hour, starts a
// forced reorganization, copies one 64-byte step of it by hand and ends the
// loop's context, as a drain does: the copy is canceled, its partial store
// file removed, and the reorganizer stays on generation 0 with one more
// canceled reorganization, finished once.
func drainMidMigration(t *testing.T, srv *server, ts *httptest.Server, storePath string) {
	t.Helper()
	_, _, canceled, timed := reorgCounts(t, ts)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv.startMaintainer(ctx, time.Hour, time.Hour)
	srv.maint.budget = 64
	postJSON(t, ts, "/reorg?force=1", nil, http.StatusAccepted, nil)
	srv.maintainTick(context.Background())
	if st := srv.reorg.Status(); !st.InProgress || st.MigratedCells == 0 || st.MigratedCells >= st.TotalCells {
		t.Fatalf("status after one step = %+v, want a copy in progress, begun and unfinished", st)
	}
	if _, err := os.Stat(genPath(storePath, 1)); err != nil {
		t.Fatalf("the copy's store file: %v", err)
	}
	cancel()
	if st := awaitReorgOver(t, srv); st.Generation != 0 || st.LastOutcome != "canceled" {
		t.Errorf("status after a drain mid-copy = %+v, want generation 0, canceled", st)
	}
	assertNoNextGeneration(t, storePath, 1)
	if _, _, c, n := reorgCounts(t, ts); c != canceled+1 || n != timed+1 {
		t.Errorf("reorg_total{canceled} %v → %v and migration_seconds_count %v → %v, want one more each", canceled, c, timed, n)
	}
}

// TestServeReorgDrainMidMigration: a drain cancels a reorganization that
// sits between its copy's steps, and one whose POST /reorg races the drain
// — handed to the maintainer just before its loop ends, or refused with 503
// just after. Either way nothing of the next generation stays on disk, the
// reorganizer reads canceled at generation 0, and it finished once.
func TestServeReorgDrainMidMigration(t *testing.T) {
	t.Run("between steps", func(t *testing.T) {
		srv, _, storePath, _ := buildAdaptiveServed(t, adaptiveConfig())
		defer srv.closeStore()
		ts := httptest.NewServer(srv.handler())
		defer ts.Close()
		drainMidMigration(t, srv, ts, storePath)
	})
	t.Run("post races the drain", func(t *testing.T) {
		srv, _, storePath, _ := buildAdaptiveServed(t, adaptiveConfig())
		defer srv.closeStore()
		ts := httptest.NewServer(srv.handler())
		defer ts.Close()
		ctx, cancel := context.WithCancel(context.Background())
		srv.startMaintainer(ctx, time.Hour, time.Hour)
		code := make(chan int, 1)
		go func() {
			resp, err := http.Post(ts.URL+"/reorg?force=1", "", nil)
			if err != nil {
				code <- 0
				return
			}
			resp.Body.Close()
			code <- resp.StatusCode
		}()
		cancel()
		if c := <-code; c != http.StatusAccepted && c != http.StatusServiceUnavailable {
			t.Fatalf("POST /reorg racing the drain = %d, want 202 or 503", c)
		}
		if st := awaitReorgOver(t, srv); st.Generation != 0 || st.LastOutcome != "canceled" {
			t.Errorf("status after the race = %+v, want generation 0, canceled", st)
		}
		assertNoNextGeneration(t, storePath, 1)
		if s, f, c, n := reorgCounts(t, ts); s != 0 || f != 0 || c != 1 || n != 1 {
			t.Errorf("outcomes success %v failed %v canceled %v timed %v, want one canceled", s, f, c, n)
		}
		// The loop is gone: a later POST is refused and finished too.
		postJSON(t, ts, "/reorg?force=1", nil, http.StatusServiceUnavailable, nil)
		if _, _, c, n := reorgCounts(t, ts); c != 2 || n != 2 {
			t.Errorf("after a POST to a stopped maintainer canceled %v timed %v, want 2 and 2", c, n)
		}
		assertNoNextGeneration(t, storePath, 1)
	})
}

// TestServeReorgPostReturnsBeforeCopy: POST /reorg answers 202 once the
// migration has started, with the copy left to the maintainer's ticks — a
// 64-byte budget takes several. While it runs GET /reorg reads it in
// progress part-way and a second POST answers 409; further ticks cut over
// and /query serves generation 1. The reorganization is one trace from the
// decision to the cutover, and Finish runs exactly once for each outcome:
// a failed step and a failed cutover before, and the success.
func TestServeReorgPostReturnsBeforeCopy(t *testing.T) {
	srv, catPath, storePath, _ := buildAdaptiveServed(t, adaptiveConfig())
	defer srv.closeStore()
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	for i := 0; i < 50; i++ {
		getJSON(t, ts, "/query?where=y%3D3..4", http.StatusOK, nil)
	}
	srv.maint = newMaintainer(64)
	c, _, _, err := loadCatalog(catPath)
	if err != nil {
		t.Fatal(err)
	}

	// A step that fails: a flipped page in a source without parity.
	flipPageByte(t, storePath, c.PageBytes, 0)
	if err := srv.st().Pool().Reset(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := forceReorg(t, srv, ts); st.Generation != 0 || st.LastOutcome != "failed" || !strings.Contains(st.LastError, "migration copy") {
		t.Fatalf("status after a failed step = %+v, want a failed copy at generation 0", st)
	}
	assertNoNextGeneration(t, storePath, 1)
	flipPageByte(t, storePath, c.PageBytes, 0)
	if err := srv.st().Pool().Reset(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s, f, _, n := reorgCounts(t, ts); s != 0 || f != 1 || n != 1 {
		t.Fatalf("after a failed step: success %v failed %v timed %v, want 0, 1, 1", s, f, n)
	}

	// A cutover that fails: the parity sidecar's path is taken.
	if err := os.Mkdir(snakes.ParityPath(genPath(storePath, 1)), 0o755); err != nil {
		t.Fatal(err)
	}
	if st := forceReorg(t, srv, ts); st.Generation != 0 || st.LastOutcome != "failed" {
		t.Fatalf("status after a failed cutover = %+v, want failed at generation 0", st)
	}
	assertNoNextGeneration(t, storePath, 1)
	if s, f, _, n := reorgCounts(t, ts); s != 0 || f != 2 || n != 2 {
		t.Fatalf("after a failed cutover: success %v failed %v timed %v, want 0, 2, 2", s, f, n)
	}

	// The success, one tick at a time.
	var accepted struct {
		Triggered  bool    `json:"triggered"`
		Generation int     `json:"generation"`
		Regret     float64 `json:"regret"`
	}
	postJSON(t, ts, "/reorg?force=1", nil, http.StatusAccepted, &accepted)
	if !accepted.Triggered || accepted.Generation != 1 || accepted.Regret <= 0 {
		t.Fatalf("POST /reorg = %+v, want triggered generation 1 with its regret", accepted)
	}
	var rs struct {
		Status snakes.ReorgStatus `json:"status"`
	}
	ticks := 0
	for ; srv.reorg.Status().InProgress; ticks++ {
		getJSON(t, ts, "/reorg", http.StatusOK, &rs)
		if !rs.Status.InProgress || rs.Status.MigratedCells >= rs.Status.TotalCells || rs.Status.TotalCells != 24 {
			t.Fatalf("GET /reorg before tick %d = %+v, want 24 cells in progress, not all copied", ticks, rs.Status)
		}
		if ticks == 1 {
			postJSON(t, ts, "/reorg?force=1", nil, http.StatusConflict, nil)
		}
		srv.maintainTick(context.Background())
	}
	if ticks < 3 {
		t.Errorf("the copy took %d ticks, want several of a 64-byte budget", ticks)
	}
	var q queryResponse
	getJSON(t, ts, "/query?where=y%3D3..4&sum=0", http.StatusOK, &q)
	if q.Generation != 1 {
		t.Errorf("query after the cutover serves generation %d, want 1", q.Generation)
	}
	if s, f, cn, n := reorgCounts(t, ts); s != 1 || f != 2 || cn != 0 || n != 3 {
		t.Errorf("outcomes success %v failed %v canceled %v timed %v, want 1, 2, 0, 3", s, f, cn, n)
	}
	samples, _ := scrape(t, ts.URL)
	if got := samples[`snakestore_http_responses_total{code="202",handler="reorg"}`]; got != 3 {
		t.Errorf(`http_responses_total{code="202",handler="reorg"} = %v, want the 3 accepted POSTs`, got)
	}

	// One trace per reorganization: the success's holds every phase under
	// its migrate span, beside the DP run that decided it.
	var tr *snakes.Trace
	for _, x := range srv.traces.Snapshot() {
		if x.Name() == "reorg" && x.Err() == "" {
			tr = x
		}
	}
	if tr == nil {
		t.Fatal("no clean reorg trace retained")
	}
	kinds := map[string][]snakes.TraceSpan{}
	for _, sp := range tr.Spans() {
		kinds[sp.Kind] = append(kinds[sp.Kind], sp)
	}
	mig := kinds[snakes.TraceKindMigrate]
	if len(kinds[snakes.TraceKindDP]) == 0 || kinds[snakes.TraceKindDP][0].Parent != 0 || len(mig) != 1 || mig[0].Parent != 0 {
		t.Fatalf("reorg trace: dp %+v, migrate %+v; want both under the root, one migrate", kinds[snakes.TraceKindDP], mig)
	}
	if len(mig[0].Attrs) == 0 || mig[0].Attrs[0].Key != "generation" || mig[0].Attrs[0].Value != 1 {
		t.Errorf("migrate span attrs = %+v, want generation 1", mig[0].Attrs)
	}
	for _, k := range []string{snakes.TraceKindCopy, snakes.TraceKindFlush, snakes.TraceKindCatalogCommit, snakes.TraceKindSwap, snakes.TraceKindDrain, snakes.TraceKindVerify} {
		if sp := kinds[k]; len(sp) != 1 || sp[0].Parent != mig[0].ID {
			t.Errorf("reorg trace has %d %s spans %+v, want one under the migrate span %d", len(sp), k, sp, mig[0].ID)
		}
	}
}
