package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/ingest"
	"repro/internal/rowcodec"
	"repro/internal/storage"
	"repro/internal/trace"
)

// testDeltaOptions is the crash-safe default for tests: every Put is
// durable the moment it is acknowledged.
func testDeltaOptions() ingest.Options {
	return ingest.Options{Policy: ingest.SyncAlways}
}

// testIngestConfig is the compaction scoring window the ingest tests use.
func testIngestConfig() int { return 4 }

// buildIngestServed is buildChaosServed plus the write path: parity
// attached (so compaction exercises the in-place parity patch) and ingest
// enabled with an always-sync delta log. The compactor loop is NOT
// started; tests tick it by hand for determinism.
func buildIngestServed(t *testing.T, dopt ingest.Options, regionCells int) (srv *server, catPath, storePath string, want float64) {
	t.Helper()
	srv, storePath, _, want = buildChaosServed(t)
	catPath = filepath.Join(filepath.Dir(storePath), "cat.json")
	c, _, _, err := loadCatalog(catPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.enableIngest(catPath, storePath, c, dopt, regionCells); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.closeIngest)
	return srv, catPath, storePath, want
}

// postJSON posts a JSON body and decodes the JSON response.
func postJSON(t *testing.T, ts *httptest.Server, path string, body any, wantStatus int, out any) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s = %d, want %d; body: %s", path, resp.StatusCode, wantStatus, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("POST %s: decoding %q: %v", path, raw, err)
		}
	}
}

func ingestOne(t *testing.T, ts *httptest.Server, coords []int, rows ...string) ingestResponse {
	t.Helper()
	var resp ingestResponse
	postJSON(t, ts, "/ingest",
		ingestRequest{Cells: []ingestCellReq{{Coords: coords, Rows: rows}}},
		http.StatusOK, &resp)
	return resp
}

// tickIngest runs one compaction tick under the same lock the background
// loop would hold.
func tickIngest(t *testing.T, srv *server) ingest.TickStats {
	t.Helper()
	srv.ing.mu.Lock()
	defer srv.ing.mu.Unlock()
	stats, err := srv.ing.comp.Tick(context.Background(), srv.st(), srv.ing.log)
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

type healthzIngest struct {
	Ingest *struct {
		PendingCells    int   `json:"pendingCells"`
		PendingBytes    int64 `json:"pendingBytes"`
		Puts            int64 `json:"puts"`
		CompactionTicks int64 `json:"compactionTicks"`
		CompactedCells  int64 `json:"compactedCells"`
	} `json:"ingest"`
}

// TestIngestMergeOnReadAndCompaction is the write path end to end over
// HTTP: an upsert is visible to queries immediately (attributed as a delta
// hit), a compaction tick folds it into the base file without changing the
// answer, and the store scrubs clean afterwards.
func TestIngestMergeOnReadAndCompaction(t *testing.T) {
	srv, _, _, want := buildIngestServed(t, testDeltaOptions(), testIngestConfig())
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	var q0 queryResponse
	getJSON(t, ts, chaosRegion, http.StatusOK, &q0)
	if q0.Sum == nil || math.Abs(*q0.Sum-want) > 1e-9 || q0.DeltaCells != 0 {
		t.Fatalf("baseline = %+v, want sum %v with no delta cells", q0, want)
	}

	// Replace cell (1,2)'s record "12.0" with "99.0": the region sum moves
	// by +87 before any compaction has happened.
	resp := ingestOne(t, ts, []int{1, 2}, "99.0")
	if resp.Accepted != 1 || resp.PendingCells != 1 {
		t.Fatalf("ingest response = %+v, want 1 accepted, 1 pending", resp)
	}
	wantHot := want - 12 + 99

	var q1 queryResponse
	getJSON(t, ts, chaosRegion, http.StatusOK, &q1)
	if q1.Records != 4 || q1.Sum == nil || math.Abs(*q1.Sum-wantHot) > 1e-9 {
		t.Fatalf("merge-on-read answer = %+v, want 4 records summing %v", q1, wantHot)
	}
	if q1.DeltaCells != 1 {
		t.Errorf("deltaCells = %d, want 1 (the overlaid cell)", q1.DeltaCells)
	}

	var h1 healthzIngest
	getJSON(t, ts, "/healthz", http.StatusOK, &h1)
	if h1.Ingest == nil || h1.Ingest.PendingCells != 1 || h1.Ingest.Puts != 1 {
		t.Fatalf("healthz ingest block = %+v, want 1 pending / 1 put", h1.Ingest)
	}

	stats := tickIngest(t, srv)
	if stats.CellsApplied != 1 || stats.PendingCells != 0 {
		t.Fatalf("tick = %+v, want 1 cell applied and an empty backlog", stats)
	}

	// Same answer from the base file alone, and the store still scrubs.
	var q2 queryResponse
	getJSON(t, ts, chaosRegion, http.StatusOK, &q2)
	if q2.Records != 4 || q2.Sum == nil || math.Abs(*q2.Sum-wantHot) > 1e-9 || q2.DeltaCells != 0 {
		t.Fatalf("post-compaction answer = %+v, want sum %v with no delta cells", q2, wantHot)
	}
	var h2 healthzIngest
	getJSON(t, ts, "/healthz", http.StatusOK, &h2)
	if h2.Ingest == nil || h2.Ingest.PendingCells != 0 || h2.Ingest.CompactionTicks != 1 || h2.Ingest.CompactedCells != 1 {
		t.Fatalf("healthz after tick = %+v, want drained with 1 tick / 1 cell", h2.Ingest)
	}
	var v struct {
		OK bool `json:"ok"`
	}
	getJSON(t, ts, "/verify", http.StatusOK, &v)
	if !v.OK {
		t.Error("store does not scrub clean after compaction")
	}

	resp2, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	raw, _ := io.ReadAll(resp2.Body)
	for _, fam := range []string{
		"snakestore_ingest_puts_total",
		"snakestore_compaction_cells_total",
		"snakestore_delta_pending_bytes",
		"snakestore_plan_cache_invalidations_total",
	} {
		if !strings.Contains(string(raw), fam) {
			t.Errorf("/metrics missing %s", fam)
		}
	}
}

// TestCompactionCommitsCatalogOnlyWhenFillsMove: a tick whose folds were all
// same-length rewrites leaves the catalog file alone (it already says what
// the store holds) yet still checkpoints; a fold that moves a fill rewrites
// it with both per-cell arrays read back from the store — the daemon keeps
// neither; and a commit that failed is retried by the next tick. A packed
// cell has no slack, so the fill that moves is a cell of three rows
// rewritten as one.
func TestCompactionCommitsCatalogOnlyWhenFillsMove(t *testing.T) {
	catPath, storePath, _ := buildPackedRows(t)
	srv := servePackedRows(t, catPath, storePath)
	c, _, _, err := loadCatalog(catPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.enableIngest(catPath, storePath, c, testDeltaOptions(), testIngestConfig()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.closeIngest)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	built, _, _, err := loadCatalog(catPath)
	if err != nil {
		t.Fatal(err)
	}
	srv.cat.BytesPer, srv.cat.LoadedBytes = nil, nil // as cmdServe leaves it
	stat := func() os.FileInfo {
		t.Helper()
		fi, err := os.Stat(catPath)
		if err != nil {
			t.Fatal(err)
		}
		return fi
	}

	before := stat()
	ingestOne(t, ts, []int{0, 2}, "9.7", "9.8", "9.9") // replaces "2.0", "2.1", "2.2": same shape, same length
	if stats := tickIngest(t, srv); stats.CellsApplied != 1 || stats.PendingCells != 0 {
		t.Fatalf("tick = %+v, want 1 cell applied and an empty backlog", stats)
	}
	if !os.SameFile(before, stat()) {
		t.Error("a tick of same-length rewrites replaced the catalog file")
	}

	// One row for three moves the cell's fill. The first commit fails (its
	// directory is gone), so the entry stays pending; the next tick retries.
	ingestOne(t, ts, []int{0, 2}, "9.5")
	srv.catPath = filepath.Join(filepath.Dir(catPath), "missing", "cat.json")
	srv.ing.mu.Lock()
	_, err = srv.ing.comp.Tick(context.Background(), srv.st(), srv.ing.log)
	srv.ing.mu.Unlock()
	if err == nil || srv.ing.log.PendingCells() != 1 {
		t.Fatalf("tick with an unwritable catalog: err = %v, %d pending; want an error and the entry kept", err, srv.ing.log.PendingCells())
	}
	srv.catPath = catPath
	if !os.SameFile(before, stat()) {
		t.Error("the failed commit replaced the catalog file")
	}
	if stats := tickIngest(t, srv); stats.PendingCells != 0 {
		t.Fatalf("retry tick = %+v, want an empty backlog", stats)
	}
	if os.SameFile(before, stat()) {
		t.Fatal("a fold that moved a fill did not rewrite the catalog")
	}
	if srv.cat.BytesPer != nil || srv.cat.LoadedBytes != nil {
		t.Error("the daemon's catalog copy grew its per-cell arrays back")
	}
	after, _, strat, err := loadServableCatalog(catPath)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after.BytesPer, built.BytesPer) || !reflect.DeepEqual(after.LoadedBytes, srv.st().LoadedBytes()) {
		t.Errorf("committed catalog does not describe the store:\n bytesPerCell %v (built %v)\n loadedBytes  %v (store %v)",
			after.BytesPer, built.BytesPer, after.LoadedBytes, srv.st().LoadedBytes())
	}
	if reflect.DeepEqual(after.LoadedBytes, built.LoadedBytes) {
		t.Error("the shorter row did not move any fill")
	}
	reopened, err := strat.OpenFileStore(storePath, after.BytesPer, after.PageBytes, 8, after.LoadedBytes)
	if err != nil {
		t.Fatalf("reopening under the committed catalog: %v", err)
	}
	reopened.Close()
}

// TestIngestValidation: a malformed batch is rejected atomically with 400
// before any cell is accepted, and a server started without -ingest 404s.
func TestIngestValidation(t *testing.T) {
	srv, _, _, _ := buildIngestServed(t, testDeltaOptions(), testIngestConfig())
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	getJSON(t, ts, "/ingest", http.StatusBadRequest, nil) // GET, not POST

	bad := []ingestRequest{
		{}, // empty batch
		{Cells: []ingestCellReq{{Coords: []int{1}, Rows: []string{"1.0"}}}},                        // 1 coord for 2-d grid
		{Cells: []ingestCellReq{{Coords: []int{9, 2}, Rows: []string{"1.0"}}}},                     // out of range
		{Cells: []ingestCellReq{{Coords: []int{1, 2}}}},                                            // no rows
		{Cells: []ingestCellReq{{Coords: []int{1, 2}, Rows: []string{strings.Repeat("9", 4096)}}}}, // oversized
		{Cells: []ingestCellReq{ // atomic: a valid cell in a bad batch must not land
			{Coords: []int{1, 2}, Rows: []string{"99.0"}},
			{Coords: []int{1, 99}, Rows: []string{"1.0"}},
		}},
	}
	for i, req := range bad {
		postJSON(t, ts, "/ingest", req, http.StatusBadRequest, nil)
		var h healthzIngest
		getJSON(t, ts, "/healthz", http.StatusOK, &h)
		if h.Ingest == nil || h.Ingest.PendingCells != 0 {
			t.Fatalf("bad batch %d left pending cells behind: %+v", i, h.Ingest)
		}
	}

	// Without -ingest the route does not exist.
	plain, _ := buildServed(t, 64, time.Second, 5*time.Second)
	tsPlain := httptest.NewServer(plain.handler())
	defer tsPlain.Close()
	postJSON(t, tsPlain, "/ingest",
		ingestRequest{Cells: []ingestCellReq{{Coords: []int{1, 2}, Rows: []string{"99.0"}}}},
		http.StatusNotFound, nil)
}

// TestIngestBacklogSheds: a full delta backlog rejects new cells with 503
// (typed overload), while a same-size replacement of an already-pending
// cell still fits (it grows the backlog by nothing).
func TestIngestBacklogSheds(t *testing.T) {
	const one = 2 // "99.0" packs into one 2-byte row of the store's template
	dopt := testDeltaOptions()
	dopt.MaxPendingBytes = one
	srv, _, _, _ := buildIngestServed(t, dopt, testIngestConfig())
	if n := len(rowcodec.EncodeCell(srv.dict, []string{"99.0"})); n != one {
		t.Fatalf("a cell of one row is %d bytes, want %d", n, one)
	}
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	ingestOne(t, ts, []int{1, 2}, "99.0")
	postJSON(t, ts, "/ingest",
		ingestRequest{Cells: []ingestCellReq{{Coords: []int{1, 3}, Rows: []string{"77.0"}}}},
		http.StatusServiceUnavailable, nil)
	resp := ingestOne(t, ts, []int{1, 2}, "88.0") // replacement: no net growth
	if resp.PendingCells != 1 {
		t.Fatalf("pending cells = %d after replacement, want 1", resp.PendingCells)
	}

	var q queryResponse
	getJSON(t, ts, chaosRegion, http.StatusOK, &q)
	if q.Sum == nil || math.Abs(*q.Sum-(54-12+88)) > 1e-9 {
		t.Fatalf("sum = %v, want the replacement value visible", q.Sum)
	}
}

// TestIngestPartialBatchCounted: a batch whose second put hits the backlog
// ceiling keeps its first cell, which /query already serves, so the 503
// says so (accepted 1 and its bytes) and the put counter counts it.
func TestIngestPartialBatchCounted(t *testing.T) {
	const one = 2 // "99.0" packs into one 2-byte row of the store's template
	dopt := testDeltaOptions()
	dopt.MaxPendingBytes = one
	srv, _, _, _ := buildIngestServed(t, dopt, testIngestConfig())
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	var shed struct {
		Error    string `json:"error"`
		Accepted int    `json:"accepted"`
		Bytes    int64  `json:"bytes"`
	}
	postJSON(t, ts, "/ingest", ingestRequest{Cells: []ingestCellReq{
		{Coords: []int{1, 2}, Rows: []string{"99.0"}},
		{Coords: []int{1, 3}, Rows: []string{"77.0"}},
	}}, http.StatusServiceUnavailable, &shed)
	if shed.Accepted != 1 || shed.Bytes != one || shed.Error == "" {
		t.Fatalf("503 body = %+v, want accepted 1, bytes %d and the error", shed, one)
	}
	var q queryResponse
	getJSON(t, ts, chaosRegion, http.StatusOK, &q)
	if q.Sum == nil || math.Abs(*q.Sum-(54-12+99)) > 1e-9 {
		t.Fatalf("sum = %v, want the accepted first cell visible and the second not", q.Sum)
	}
	m, _ := scrape(t, ts.URL)
	if got := m["snakestore_ingest_puts_total"]; got != 1 {
		t.Errorf("snakestore_ingest_puts_total = %v, want 1", got)
	}
	if got := m["snakestore_ingest_bytes_total"]; got != one {
		t.Errorf("snakestore_ingest_bytes_total = %v, want %d", got, one)
	}
}

// --- kill-subprocess crash matrix ---------------------------------------

// openIngestServer opens an existing store directory the way `serve
// -ingest` would: catalog, store, parity sidecar, delta log, and startup
// redo recovery. Shared by the crash helper subprocess and the parent's
// post-crash verification.
func openIngestServer(dir string) (*server, error) {
	catPath := filepath.Join(dir, "cat.json")
	storePath := filepath.Join(dir, "facts.db")
	c, schema, strat, err := loadCatalog(catPath)
	if err != nil {
		return nil, err
	}
	active := activeStorePath(c, storePath)
	store, err := strat.OpenFileStore(active, c.BytesPer, c.PageBytes, 8, c.LoadedBytes)
	if err != nil {
		return nil, err
	}
	if err := store.AttachParity(storage.ParityPath(active)); err != nil {
		store.Close()
		return nil, err
	}
	adm, err := storage.NewAdmission(8, time.Second)
	if err != nil {
		store.Close()
		return nil, err
	}
	srv := newServer(store, schema, c, adm, 5*time.Second, trace.Config{})
	if err := srv.enableIngest(catPath, storePath, c, testDeltaOptions(), testIngestConfig()); err != nil {
		store.Close()
		return nil, err
	}
	return srv, nil
}

// runIngestCrashOps executes a semicolon-separated op script against the
// store in dir: "put:x,y=VAL" appends an upsert (acknowledged once it
// returns), "tick" runs one compaction tick. Crash points injected via
// SNAKESTORE_INGEST_CRASH kill the process mid-op with exit code 42.
func runIngestCrashOps(dir, ops string) error {
	srv, err := openIngestServer(dir)
	if err != nil {
		return err
	}
	st := srv.st()
	for _, op := range strings.Split(ops, ";") {
		switch {
		case strings.HasPrefix(op, "put:"):
			spec, val, ok := strings.Cut(strings.TrimPrefix(op, "put:"), "=")
			if !ok {
				return fmt.Errorf("bad op %q", op)
			}
			var x, y int
			if _, err := fmt.Sscanf(spec, "%d,%d", &x, &y); err != nil {
				return fmt.Errorf("bad op %q: %v", op, err)
			}
			cell := st.Layout().Order().CellIndex([]int{x, y})
			srv.ing.mu.Lock()
			err := srv.ing.log.Put(cell, rowcodec.EncodeCell(srv.dict, []string{val}))
			srv.ing.mu.Unlock()
			if err != nil {
				return err
			}
		case op == "tick":
			srv.ing.mu.Lock()
			_, err := srv.ing.comp.Tick(context.Background(), st, srv.ing.log)
			srv.ing.mu.Unlock()
			if err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown op %q", op)
		}
	}
	srv.closeIngest()
	return st.Close()
}

// TestIngestCrashHelper is the subprocess body for the crash matrix; the
// parent re-execs the test binary with INGEST_CRASH_HELPER=1 and a crash
// point in SNAKESTORE_INGEST_CRASH.
func TestIngestCrashHelper(t *testing.T) {
	if os.Getenv("INGEST_CRASH_HELPER") != "1" {
		t.Skip("crash-matrix subprocess helper")
	}
	if err := runIngestCrashOps(os.Getenv("INGEST_CRASH_DIR"), os.Getenv("INGEST_CRASH_OPS")); err != nil {
		fmt.Fprintf(os.Stderr, "crash helper: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// runCrashHelper re-execs this test binary to run ops against dir,
// returning the subprocess exit code (42 = orchestrated crash).
func runCrashHelper(t *testing.T, dir, ops, crashPoint string) int {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "TestIngestCrashHelper$", "-test.v")
	cmd.Env = append(os.Environ(),
		"INGEST_CRASH_HELPER=1",
		"INGEST_CRASH_DIR="+dir,
		"INGEST_CRASH_OPS="+ops,
		"SNAKESTORE_INGEST_CRASH="+crashPoint,
	)
	out, err := cmd.CombinedOutput()
	if err == nil {
		return 0
	}
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		if ee.ExitCode() != crashExitCode {
			t.Logf("helper output:\n%s", out)
		}
		return ee.ExitCode()
	}
	t.Fatalf("helper: %v\n%s", err, out)
	return -1
}

const crashExitCode = 42

// cellRecord reads the single row of grid cell (x, y), failing if the
// cell does not hold exactly one row.
func cellRecord(t *testing.T, srv *server, x, y int) string {
	t.Helper()
	st := srv.st()
	cell := st.Layout().Order().CellIndex([]int{x, y})
	var rows []string
	if err := st.ReadCellCtx(context.Background(), cell, func(b []byte) error {
		text, err := rowcodec.DecodeCell(srv.dict, nil, b)
		rows = strings.Split(string(text), "\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("cell (%d,%d) holds %d records, want exactly 1: %q", x, y, len(rows), rows)
	}
	return rows[0]
}

// TestCrashPointIngestMatrix kills a subprocess at each dangerous point of
// the write path — mid-delta-append, mid-compaction-rewrite, and after the
// catalog commit but before the delta truncate — then recovers and checks
// the two invariants: no acknowledged write is lost (and no unacknowledged
// write surfaces), and the store scrubs clean. Each scenario uses two
// subprocess runs because the crash point is armed per-process: run 1 is
// clean (its writes are acknowledged), run 2 crashes.
func TestCrashPointIngestMatrix(t *testing.T) {
	cases := []struct {
		name           string
		ops1           string // clean run: everything here is acknowledged
		ops2           string // crashing run
		crash          string
		want12, want13 string // expected cell contents after recovery
	}{
		{
			// The append dies after half the record hits disk: the torn
			// tail must be truncated on recovery and the unacknowledged
			// value must NOT surface; the earlier acknowledged put must.
			name: "mid-delta-append",
			ops1: "put:1,2=88.0", ops2: "put:1,3=77.0", crash: "mid-append",
			want12: "88.0", want13: "13.0",
		},
		{
			// Compaction dies after rewriting the cell in the base file
			// but before the flush/catalog/checkpoint chain: recovery
			// replays the still-pending entry idempotently.
			name: "mid-compaction-rewrite",
			ops1: "put:1,2=88.0;tick", ops2: "put:1,3=77.0;tick", crash: "mid-compact",
			want12: "88.0", want13: "77.0",
		},
		{
			// The crash lands between the catalog commit and the delta
			// truncate: the entry is applied twice (once per process) and
			// must still appear exactly once.
			name: "post-catalog-commit-pre-truncate",
			ops1: "put:1,2=88.0;tick", ops2: "put:1,3=77.0;tick", crash: "pre-checkpoint",
			want12: "88.0", want13: "77.0",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			catPath := filepath.Join(dir, "cat.json")
			storePath := filepath.Join(dir, "facts.db")
			csvPath := filepath.Join(dir, "facts.csv")
			writeFactsCSV(t, csvPath)
			if err := cmdOptimize([]string{"-dims", "x:2,2 y:3,2", "-page", "64", "-catalog", catPath}); err != nil {
				t.Fatal(err)
			}
			if err := cmdBuild([]string{
				"-catalog", catPath, "-csv", csvPath, "-store", storePath, "-frames", "8", "-parity-group", "2",
			}); err != nil {
				t.Fatal(err)
			}

			if code := runCrashHelper(t, dir, tc.ops1, ""); code != 0 {
				t.Fatalf("clean run exited %d", code)
			}
			if code := runCrashHelper(t, dir, tc.ops2, tc.crash); code != crashExitCode {
				t.Fatalf("crash run exited %d, want %d", code, crashExitCode)
			}

			// Recovery is the ordinary startup path.
			srv, err := openIngestServer(dir)
			if err != nil {
				t.Fatalf("recovery open: %v", err)
			}
			defer func() {
				srv.closeIngest()
				srv.st().Close()
			}()

			if got := cellRecord(t, srv, 1, 2); got != tc.want12 {
				t.Errorf("cell (1,2) = %q, want %q", got, tc.want12)
			}
			if got := cellRecord(t, srv, 1, 3); got != tc.want13 {
				t.Errorf("cell (1,3) = %q, want %q", got, tc.want13)
			}
			if n := srv.ing.log.PendingCells(); n != 0 {
				t.Errorf("pending cells = %d after recovery, want 0", n)
			}

			// A cell the scenario never touched is intact.
			if got := cellRecord(t, srv, 2, 4); got != "24.0" {
				t.Errorf("bystander cell (2,4) = %q, want untouched 24.0", got)
			}

			rep, err := srv.st().VerifyCtx(context.Background())
			if err != nil {
				t.Fatalf("scrub: %v", err)
			}
			if !rep.OK() {
				t.Errorf("scrub found problems after recovery: %v", rep.Err())
			}
		})
	}
}

// TestReorgCarriesDeltas: a background reorganization onto a new
// generation carries the pending delta tail with it — the new base file
// holds the upsert, the old generation's delta log is gone, and a fresh
// log accepts writes at the new generation.
func TestReorgCarriesDeltas(t *testing.T) {
	srv, catPath, storePath, _ := buildAdaptiveServed(t, adaptiveConfig())
	defer srv.closeStore()
	if err := srv.enableIngest(catPath, storePath, srv.cat, testDeltaOptions(), testIngestConfig()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	var q0 queryResponse
	getJSON(t, ts, chaosRegion, http.StatusOK, &q0)
	ingestOne(t, ts, []int{1, 3}, "77.0", "0.0") // both rows of the cell
	wantHot := *q0.Sum - 13 + 77

	// Shift the workload to column queries so the forced reorg has a
	// different layout to migrate to, then trigger it.
	for i := 0; i < 50; i++ {
		getJSON(t, ts, "/query?where=y%3D3..4", http.StatusOK, nil)
	}
	if st := forceReorg(t, srv, ts); st.LastOutcome != "success" {
		t.Fatalf("forced reorg with pending deltas: %+v", st)
	} else if st.Generation != 1 {
		t.Fatalf("post-reorg generation = %d, want 1", st.Generation)
	}

	// The delta rode along: folded into the new base, not pending.
	var q1 queryResponse
	getJSON(t, ts, chaosRegion, http.StatusOK, &q1)
	if q1.Generation != 1 || q1.Records != q0.Records || q1.Sum == nil || math.Abs(*q1.Sum-wantHot) > 1e-9 {
		t.Fatalf("post-reorg answer = %+v, want generation 1 summing %v", q1, wantHot)
	}
	if q1.DeltaCells != 0 {
		t.Errorf("deltaCells = %d on the new generation, want 0 (folded at cutover)", q1.DeltaCells)
	}
	if n := srv.ing.log.PendingCells(); n != 0 {
		t.Errorf("pending cells = %d after cutover, want 0", n)
	}
	if _, err := os.Stat(ingest.DeltaPath(storePath)); !os.IsNotExist(err) {
		t.Errorf("old generation delta log still on disk (err=%v)", err)
	}
	if _, err := os.Stat(ingest.DeltaPath(genPath(storePath, 1))); err != nil {
		t.Errorf("new generation delta log missing: %v", err)
	}

	// The swapped-in log accepts writes at the new generation.
	resp := ingestOne(t, ts, []int{1, 2}, "88.0")
	if resp.Generation != 1 || resp.PendingCells != 1 {
		t.Fatalf("post-swap ingest = %+v, want generation 1 with 1 pending", resp)
	}
	var q2 queryResponse
	getJSON(t, ts, chaosRegion, http.StatusOK, &q2)
	if q2.Sum == nil || math.Abs(*q2.Sum-(wantHot-12+88)) > 1e-9 || q2.DeltaCells != 1 {
		t.Fatalf("post-swap merge-on-read = %+v, want sum %v with 1 delta cell", q2, wantHot-12+88)
	}
}

// TestWriteErrLogPoisonedIs503: a delta log that refuses writes after a
// failed write or fsync sheds like a full backlog, with 503.
func TestWriteErrLogPoisonedIs503(t *testing.T) {
	rec := httptest.NewRecorder()
	(&server{}).writeErr(rec, fmt.Errorf("%w: %w", ingest.ErrLogPoisoned, os.ErrClosed))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("writeErr(ErrLogPoisoned) = %d, want 503", rec.Code)
	}
}
