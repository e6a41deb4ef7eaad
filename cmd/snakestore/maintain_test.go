package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	snakes "repro"
	"repro/internal/rowcodec"
	"repro/internal/storage"
	"repro/internal/trace"
)

// TestMaintainerQuarantinesFramingDamage: a cell's record header broken
// under a valid checksum, parity rebuilt over the damage, then a bit
// flipped on its page (TestRepairCtxWalksRepairedPage's construction). Within one pass over the store the maintainer
// rebuilds the page from parity, walks its cells from the rebuilt image,
// quarantines the page with the framing error, and /healthz reads degraded
// with the pass in lastScrub. A checksum-only scrubber repairs the page and
// reads ok.
func TestMaintainerQuarantinesFramingDamage(t *testing.T) {
	srv, storePath, pageBytes, _ := buildChaosServed(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	st := srv.st()
	cell := st.Layout().Order().CellIndex([]int{1, 2})
	breakHeaderOnDisk(t, st, storePath, cell)
	if err := st.Pool().Reset(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteParity(storage.ParityPath(storePath), st.ParityGroup()); err != nil {
		t.Fatal(err)
	}
	rep, err := st.VerifyCtx(context.Background())
	if err != nil || len(rep.Problems) != 1 || rep.Problems[0].Cell != cell {
		t.Fatalf("scrub after breaking cell %d's framing: %v %v", cell, rep, err)
	}
	page := rep.Problems[0].Page
	flipPageByte(t, storePath, pageBytes, page)

	srv.maint = newMaintainer(maintainBudget) // 1 MiB of 64-byte pages: the pass ends the tick
	repaired := srv.metrics.pagesRepaired.Value()
	if spent := srv.maintainTick(context.Background()); spent.scrub == 0 || srv.maint.cur.Page != st.Layout().TotalPages() {
		t.Fatalf("tick spent %+v and left the cursor at page %d, want one whole pass", spent, srv.maint.cur.Page)
	}
	if got := srv.metrics.pagesRepaired.Value() - repaired; got != 1 {
		t.Errorf("pages repaired %d, want the flipped page %d", got, page)
	}
	var h struct {
		Status           string  `json:"status"`
		QuarantinedPages []int64 `json:"quarantinedPages"`
		LastScrub        string  `json:"lastScrub"`
	}
	getJSON(t, ts, "/healthz", http.StatusOK, &h)
	want := fmt.Sprintf("1 problem(s) in %d pages", st.Layout().TotalPages())
	if h.Status != "degraded" || len(h.QuarantinedPages) != 1 || h.QuarantinedPages[0] != page || !strings.HasPrefix(h.LastScrub, want) {
		t.Errorf("healthz after one pass = %+v, want degraded with page %d quarantined and lastScrub %q…", h, page, want)
	}
}

// TestScrubWindowKeepsOpenCellQuarantined: a window that leaves a cell with
// broken framing open at its edge has not judged the cell, so it does not
// re-admit the quarantined page the cell's damage is on; the window that
// finishes the cell finds the damage again.
func TestScrubWindowKeepsOpenCellQuarantined(t *testing.T) {
	catPath, storePath, _ := buildPackedRows(t)
	srv := servePackedRows(t, catPath, storePath)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	st := srv.st()
	l := st.Layout()
	usable := l.PageSize() - l.TrailerBytes()
	cell, start := -1, int64(0)
	for pos := 0; pos < l.Order().Len(); pos++ {
		c := l.Order().CellAt(pos)
		fill := st.LoadedBytes()[c]
		if fill > 0 && (start+fill-1)/usable > start/usable { // the damage is on a page the cell runs on from
			cell = c
			break
		}
		start += l.CellCapacity(c)
	}
	if cell < 0 {
		t.Fatal("no cell runs across a page boundary")
	}
	breakHeaderOnDisk(t, st, storePath, cell)
	if err := st.Pool().Reset(context.Background()); err != nil {
		t.Fatal(err)
	}
	page := start / usable
	srv.maint = newMaintainer(maintainBudget)
	srv.maintainTick(context.Background())
	if q := srv.quarantinedPages(); len(q) != 1 || q[0] != page {
		t.Fatalf("quarantine after a pass = %v, want page %d", q, page)
	}
	srv.maint.budget = (page + 1) * l.PageSize() // the next pass's first window ends inside the cell
	srv.maintainTick(context.Background())
	if srv.maint.cur.Page != page+1 {
		t.Fatalf("the window ended at page %d, want %d", srv.maint.cur.Page, page+1)
	}
	var h struct {
		Status           string  `json:"status"`
		QuarantinedPages []int64 `json:"quarantinedPages"`
	}
	getJSON(t, ts, "/healthz", http.StatusOK, &h)
	if h.Status != "degraded" || len(h.QuarantinedPages) != 1 || h.QuarantinedPages[0] != page {
		t.Errorf("healthz after a window that left cell %d open = %+v, want degraded with page %d", cell, h, page)
	}
}

// breakHeaderOnDisk overwrites the first byte of cell's extent on disk with
// 0xff — neither a packed row's first byte nor the framed-cell marker — and
// re-seals the page's checksum trailer (magic, then CRC-32C of the data
// region), so the page reads clean and the cell fails its check.
func breakHeaderOnDisk(t *testing.T, st *snakes.FileStore, storePath string, cell int) {
	t.Helper()
	l := st.Layout()
	var start int64
	for pos := 0; pos < l.Order().PosOf(cell); pos++ {
		start += l.CellCapacity(l.Order().CellAt(pos))
	}
	pageBytes := l.PageSize()
	usable := pageBytes - l.TrailerBytes()

	f, err := os.OpenFile(storePath, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	page := make([]byte, pageBytes)
	off := start / usable * pageBytes
	if _, err := f.ReadAt(page, off); err != nil {
		t.Fatal(err)
	}
	page[start%usable] = 0xff
	binary.LittleEndian.PutUint32(page[usable+4:], crc32.Checksum(page[:usable], crc32.MakeTable(crc32.Castagnoli)))
	if _, err := f.WriteAt(page, off); err != nil {
		t.Fatal(err)
	}
}

// TestMaintainerLastScrub: a pass over a clean store and POST /repair each
// leave /healthz's lastScrub clean with the store's page and row counts.
func TestMaintainerLastScrub(t *testing.T) {
	srv, _ := buildServed(t, 64, time.Second, 5*time.Second)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	srv.maint = newMaintainer(maintainBudget)
	srv.maintainTick(context.Background())
	var h struct {
		LastScrub string `json:"lastScrub"`
	}
	total := srv.st().Layout().TotalPages()
	getJSON(t, ts, "/healthz", http.StatusOK, &h)
	if want := fmt.Sprintf("clean: %d pages, 24 records (maintainer pass, ", total); !strings.HasPrefix(h.LastScrub, want) {
		t.Errorf("lastScrub after one pass = %q, want %q…", h.LastScrub, want)
	}
	postRepair(t, ts.URL)
	getJSON(t, ts, "/healthz", http.StatusOK, &h)
	if want := fmt.Sprintf("clean: %d pages, 24 records (POST /repair, ", total); !strings.HasPrefix(h.LastScrub, want) {
		t.Errorf("lastScrub after POST /repair = %q, want %q…", h.LastScrub, want)
	}
}

// TestMaintainerFoldsBeforeScrub: a tick with a delta backlog folds it
// first, charged in payload bytes, and the scrub gets only what is left —
// the window from the cursor over the pages that buys; a tick with nothing
// to fold scrubs its whole budget.
func TestMaintainerFoldsBeforeScrub(t *testing.T) {
	srv, _, _, _ := buildIngestServed(t, testDeltaOptions(), testIngestConfig())
	ctx := context.Background()
	st := srv.st()
	pageBytes := st.Layout().PageSize()
	var folded int64 // a rewrite of every cell: more than a page of payload
	srv.ing.mu.Lock()
	for x := 0; x < 4; x++ {
		for y := 0; y < 6; y++ {
			framed := rowcodec.EncodeCell(srv.dict, []string{fmt.Sprintf("%d.5", 10*x+y)})
			if err := srv.ing.log.Put(st.Layout().Order().CellIndex([]int{x, y}), framed); err != nil {
				t.Fatal(err)
			}
			folded += int64(len(framed))
		}
	}
	srv.ing.mu.Unlock()
	if folded <= pageBytes || st.Layout().TotalPages() < 2 {
		t.Fatalf("backlog of %d bytes over %d pages, want more than one %d-byte page over two or more", folded, st.Layout().TotalPages(), pageBytes)
	}
	srv.maint = newMaintainer(folded + pageBytes)
	spent := srv.maintainTick(ctx)
	if spent.fold != folded || spent.copy != 0 || spent.scrub != pageBytes || srv.maint.cur.Page != 1 || srv.ing.log.PendingBytes() != 0 {
		t.Fatalf("tick with a %d-byte backlog spent %+v to page %d, want the fold and then a one-page window", folded, spent, srv.maint.cur.Page)
	}
	want := min(srv.maint.budget/pageBytes, st.Layout().TotalPages()-1) * pageBytes
	if spent = srv.maintainTick(ctx); spent.fold != 0 || spent.scrub != want {
		t.Fatalf("tick with no backlog spent %+v, want a scrub window of %d bytes from page 1", spent, want)
	}
}

// TestServeRejectsNonPositiveMaintainInterval: a maintenance tick of zero
// or less is a usage error, not a ticker that panics.
func TestServeRejectsNonPositiveMaintainInterval(t *testing.T) {
	for _, v := range []string{"0", "-1s"} {
		if err := cmdServe([]string{"-maintain-interval", v}); !errors.Is(err, errUsage) {
			t.Errorf("serve -maintain-interval %s: %v, want a usage error", v, err)
		}
	}
}

// TestMaintainerPacesMigration: a forced reorganization under the
// maintainer copies in the ticks' grants — no tick copies more than it was
// granted, the copy takes several ticks, and their bytes add up to the
// store's. Folding waits while it runs: upserts to every cell, posted after
// the first grant, all reach the new generation through the cutover.
func TestMaintainerPacesMigration(t *testing.T) {
	srv, ts, stored := buildMaintainedReorg(t)
	const budget = 16
	copied := migrateInTicks(t, srv, ts, budget, func() {
		for x := 0; x < 4; x++ {
			for y := 0; y < 6; y++ {
				ingestOne(t, ts, []int{x, y}, fmt.Sprintf("%d.5", 10*x+y), "0.0")
			}
		}
	})
	var sum int64
	for _, c := range copied {
		sum += c
		if c > budget {
			t.Errorf("a tick granted %d bytes copied %d", budget, c)
		}
	}
	if len(copied) < 2 || sum != stored {
		t.Errorf("copy ticks %v add up to %d bytes over %d ticks, want the store's %d over 2 or more", copied, sum, len(copied), stored)
	}
	var q queryResponse
	getJSON(t, ts, "/query?sum=0", http.StatusOK, &q)
	if q.Generation != 1 || q.Sum == nil || math.Abs(*q.Sum-432) > 1e-9 {
		t.Errorf("after the swap /query = %+v, want generation 1 summing 420 + 24 × 0.5", q)
	}
}

// TestMaintainerCopiesWholeGrant: only the grant ends a migration's tick.
// A store smaller than one tick's budget, in one-cell regions, is copied
// in one tick.
func TestMaintainerCopiesWholeGrant(t *testing.T) {
	srv, ts, stored := buildMaintainedReorg(t)
	if copied := migrateInTicks(t, srv, ts, maintainBudget, nil); len(copied) != 1 || copied[0] != stored {
		t.Errorf("copy ticks %v, want the store's %d bytes in one", copied, stored)
	}
}

// buildMaintainedReorg is buildAdaptiveServed with ingest on, migrating in
// one-cell regions, after a workload that makes a reorganization pay; it
// returns the store's loaded bytes.
func buildMaintainedReorg(t *testing.T) (*server, *httptest.Server, int64) {
	srv, catPath, storePath, _ := buildAdaptiveServed(t, adaptiveConfig())
	srv.regionCells = 1
	t.Cleanup(func() { srv.closeStore() })
	if err := srv.enableIngest(catPath, storePath, srv.cat, testDeltaOptions(), testIngestConfig()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	for i := 0; i < 50; i++ {
		getJSON(t, ts, "/query?where=y%3D3..4", http.StatusOK, nil)
	}
	var stored int64
	for _, b := range srv.st().LoadedBytes() {
		stored += b
	}
	return srv, ts, stored
}

// migrateInTicks forces a reorganization under a maintainer of budget
// bytes a tick and ticks it until the reorganization ends, returning what
// each tick that copied copied. No tick may fold while it runs. afterFirst,
// if set, runs once after the first tick that copied.
func migrateInTicks(t *testing.T, srv *server, ts *httptest.Server, budget int64, afterFirst func()) []int64 {
	t.Helper()
	srv.maint = newMaintainer(budget)
	postJSON(t, ts, "/reorg?force=1", nil, http.StatusAccepted, nil)
	var copied []int64
	for srv.reorg.Status().InProgress {
		spent := srv.maintainTick(context.Background())
		if spent.fold != 0 {
			t.Errorf("a tick folded %d bytes during the migration", spent.fold)
		}
		if spent.copy > 0 {
			copied = append(copied, spent.copy)
			if len(copied) == 1 && afterFirst != nil {
				afterFirst()
			}
		}
	}
	if st := srv.reorg.Status(); st.LastOutcome != "success" {
		t.Fatalf("forced reorg under the maintainer: %+v", st)
	}
	return copied
}

// TestVerifyCountsRows: on a store whose cells pack several rows each,
// verify counts rows, as /query does — the CLI line, /verify and the
// maintainer's pass agree with /query's records over the whole grid, the
// cell check counting each frameless cell's rows, one of them across a page
// boundary — and names the cells it checked as such.
func TestVerifyCountsRows(t *testing.T) {
	catPath, storePath, rows := buildPackedRows(t)
	stdout := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	verr := cmdVerify([]string{"-catalog", catPath, "-store", storePath})
	os.Stdout = stdout
	w.Close()
	out, _ := io.ReadAll(r)
	if verr != nil {
		t.Fatal(verr)
	}
	if want := fmt.Sprintf(" pages, %d records (24 cells)\n", rows); !strings.Contains(string(out), want) {
		t.Errorf("verify printed %q, want …%q", out, want)
	}

	srv := servePackedRows(t, catPath, storePath)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	var q queryResponse
	getJSON(t, ts, "/query", http.StatusOK, &q)
	var v struct {
		Records int64 `json:"records"`
		Cells   int64 `json:"cells"`
	}
	getJSON(t, ts, "/verify", http.StatusOK, &v)
	if q.Records != int64(rows) || v.Records != q.Records || v.Cells != 24 {
		t.Errorf("/query counts %d records, /verify %d in %d cells; want %d rows in 24 packed cells", q.Records, v.Records, v.Cells, rows)
	}
	l, loaded := srv.st().Layout(), srv.st().LoadedBytes()
	usable, start, across := l.PageSize()-l.TrailerBytes(), int64(0), false
	for pos := 0; pos < l.Order().Len(); pos++ {
		c := l.Order().CellAt(pos)
		across = across || loaded[c] > 0 && (start+loaded[c]-1)/usable > start/usable
		start += l.CellCapacity(c)
	}
	if !across {
		t.Error("no cell runs across a page boundary")
	}
	srv.maint = newMaintainer(maintainBudget)
	srv.maintainTick(context.Background())
	var h struct {
		LastScrub string `json:"lastScrub"`
	}
	getJSON(t, ts, "/healthz", http.StatusOK, &h)
	if want := fmt.Sprintf(" pages, %d records (maintainer pass", rows); !strings.Contains(h.LastScrub, want) {
		t.Errorf("lastScrub = %q, want …%q", h.LastScrub, want)
	}
}

// buildPackedRows builds a 4×6 store of 64-byte pages whose cells pack one
// to three rows each, so cells differ in size and some run across a page
// boundary; it returns the catalog and store paths and the row count.
func buildPackedRows(t *testing.T) (catPath, storePath string, rows int) {
	t.Helper()
	dir := t.TempDir()
	catPath, storePath = filepath.Join(dir, "cat.json"), filepath.Join(dir, "facts.db")
	csvPath := filepath.Join(dir, "facts.csv")
	var csv strings.Builder
	for x := 0; x < 4; x++ {
		for y := 0; y < 6; y++ {
			for k := 0; k <= (x+y)%3; k++ {
				fmt.Fprintf(&csv, "%d,%d,%d.%d\n", x, y, 10*x+y, k)
				rows++
			}
		}
	}
	if err := os.WriteFile(csvPath, []byte(csv.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdOptimize([]string{"-dims", "x:2,2 y:3,2", "-page", "48", "-catalog", catPath}); err != nil {
		t.Fatal(err)
	}
	if err := cmdBuild([]string{"-catalog", catPath, "-csv", csvPath, "-store", storePath}); err != nil {
		t.Fatal(err)
	}
	return catPath, storePath, rows
}

// servePackedRows opens buildPackedRows' store behind a server.
func servePackedRows(t *testing.T, catPath, storePath string) *server {
	t.Helper()
	c, schema, strat, err := loadCatalog(catPath)
	if err != nil {
		t.Fatal(err)
	}
	store, err := strat.OpenFileStore(storePath, c.BytesPer, c.PageBytes, 8, c.LoadedBytes)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	adm, err := storage.NewAdmission(64, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return newServer(store, schema, c, adm, 5*time.Second, trace.Config{})
}
