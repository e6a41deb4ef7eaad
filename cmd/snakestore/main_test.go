package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	snakes "repro"
	"repro/internal/rowcodec"
	"repro/internal/storage"
	"repro/internal/trace"
)

// writeFactsCSV writes a small deterministic fact file and returns the
// expected sum of column 0 for the region [1,2)×[2,6).
func writeFactsCSV(t *testing.T, path string) float64 {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write([]string{"x", "y", "amount"}); err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for x := 0; x < 4; x++ {
		for y := 0; y < 6; y++ {
			amount := float64(x*10 + y)
			if err := w.Write([]string{
				strconv.Itoa(x), strconv.Itoa(y),
				strconv.FormatFloat(amount, 'f', 1, 64),
			}); err != nil {
				t.Fatal(err)
			}
			if x == 1 && y >= 2 {
				want += amount
			}
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		t.Fatal(err)
	}
	return want
}

func TestEndToEndWorkflow(t *testing.T) {
	dir := t.TempDir()
	cat := filepath.Join(dir, "cat.json")
	store := filepath.Join(dir, "facts.db")
	csvPath := filepath.Join(dir, "facts.csv")
	want := writeFactsCSV(t, csvPath)

	if err := cmdOptimize([]string{
		"-dims", "x:2,2 y:3,2", "-workload", "0,1:1", "-page", "64", "-catalog", cat,
	}); err != nil {
		t.Fatal(err)
	}
	if err := cmdBuild([]string{
		"-catalog", cat, "-csv", csvPath, "-store", store, "-frames", "8",
	}); err != nil {
		t.Fatal(err)
	}
	// Query through the loaded catalog: verify record count and sum by
	// reusing the command's own machinery.
	c, schema, strat, err := loadCatalog(cat)
	if err != nil {
		t.Fatal(err)
	}
	if schema.NumCells() != 24 {
		t.Fatalf("NumCells = %d", schema.NumCells())
	}
	region, err := parseRegion(schema, schemaDims(c), []string{"x=1..2", "y=2..6"})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := strat.OpenFileStore(store, c.BytesPer, c.PageBytes, 8, c.LoadedBytes)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	var got float64
	var count int
	if err := readRegion(context.Background(), fs, region, c.Dict, func(cell int, row []byte) error {
		v, err := strconv.ParseFloat(string(bytes.SplitN(row, []byte(","), 2)[0]), 64)
		if err != nil {
			return err
		}
		got += v
		count++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != 4 {
		t.Errorf("scanned %d records, want 4", count)
	}
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("sum = %v, want %v", got, want)
	}
	// cmdQuery itself runs cleanly over the same inputs.
	if err := cmdQuery([]string{
		"-catalog", cat, "-store", store, "-where", "x=1..2", "-where", "y=2..6", "-sum", "0",
	}); err != nil {
		t.Fatal(err)
	}
	// A freshly built store scrubs clean.
	if err := cmdVerify([]string{"-catalog", cat, "-store", store}); err != nil {
		t.Fatalf("verify on a clean store: %v", err)
	}
}

func TestVerifyDetectsFlippedByte(t *testing.T) {
	dir := t.TempDir()
	cat := filepath.Join(dir, "cat.json")
	store := filepath.Join(dir, "facts.db")
	csvPath := filepath.Join(dir, "facts.csv")
	writeFactsCSV(t, csvPath)
	if err := cmdOptimize([]string{"-dims", "x:2,2 y:3,2", "-page", "64", "-catalog", cat}); err != nil {
		t.Fatal(err)
	}
	if err := cmdBuild([]string{"-catalog", cat, "-csv", csvPath, "-store", store, "-frames", "8"}); err != nil {
		t.Fatal(err)
	}
	// Flip one bit in the first page's data region.
	f, err := os.OpenFile(store, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	one := make([]byte, 1)
	if _, err := f.ReadAt(one, 3); err != nil {
		t.Fatal(err)
	}
	one[0] ^= 0x20
	if _, err := f.WriteAt(one, 3); err != nil {
		t.Fatal(err)
	}
	f.Close()

	err = cmdVerify([]string{"-catalog", cat, "-store", store})
	if !errors.Is(err, storage.ErrCorruptPage) {
		t.Fatalf("verify over a flipped byte: err = %v, want ErrCorruptPage", err)
	}
	// The query path trips over the same damage instead of returning
	// silently wrong numbers.
	if err := cmdQuery([]string{"-catalog", cat, "-store", store}); !errors.Is(err, storage.ErrCorruptPage) {
		t.Fatalf("query over a flipped byte: err = %v, want ErrCorruptPage", err)
	}
}

func TestDirtyCatalogBlocksQueriesUntilRebuilt(t *testing.T) {
	dir := t.TempDir()
	cat := filepath.Join(dir, "cat.json")
	store := filepath.Join(dir, "facts.db")
	csvPath := filepath.Join(dir, "facts.csv")
	writeFactsCSV(t, csvPath)
	if err := cmdOptimize([]string{"-dims", "x:2,2 y:3,2", "-page", "64", "-catalog", cat}); err != nil {
		t.Fatal(err)
	}
	if err := cmdBuild([]string{"-catalog", cat, "-csv", csvPath, "-store", store}); err != nil {
		t.Fatal(err)
	}
	c, _, _, err := loadCatalog(cat)
	if err != nil {
		t.Fatal(err)
	}
	if c.Dirty {
		t.Fatal("completed build left the catalog dirty")
	}
	// Simulate a crash mid-build: the dirty flag is set and load state wiped.
	c.Dirty = true
	c.BytesPer, c.LoadedBytes = nil, nil
	if err := writeCatalog(cat, c); err != nil {
		t.Fatal(err)
	}
	err = cmdQuery([]string{"-catalog", cat, "-store", store})
	if err == nil || !strings.Contains(err.Error(), "dirty") {
		t.Fatalf("query against a dirty catalog: err = %v, want dirty-build diagnosis", err)
	}
	if errors.Is(err, errUsage) {
		t.Fatal("dirty catalog is a state error, not a usage error")
	}
	// Re-running build recovers: it rebuilds and clears the flag.
	if err := cmdBuild([]string{"-catalog", cat, "-csv", csvPath, "-store", store}); err != nil {
		t.Fatal(err)
	}
	if err := cmdQuery([]string{"-catalog", cat, "-store", store}); err != nil {
		t.Fatalf("query after recovery build: %v", err)
	}
}

// TestOldStoreRefusedUntilRebuilt: a catalog of version 3 or older that
// carries load state describes a store of text rows, which nothing decodes
// any more. serve and query refuse it with the typed error (exit 1, not a
// usage error) before touching a file — stale generations of a crashed
// reorganization included — while verify and verify -repair, which read
// framing only, keep working; re-running build is the way back. An optimize
// output of any version, which has no load state, feeds build as before. A
// version 4 store, encoded without a row dictionary, is not old: it serves
// the sums a rebuild serves.
func TestOldStoreRefusedUntilRebuilt(t *testing.T) {
	for _, version := range []int{1, 2, 3} {
		dir := t.TempDir()
		cat := filepath.Join(dir, "cat.json")
		store := filepath.Join(dir, "facts.db")
		csvPath := filepath.Join(dir, "facts.csv")
		writeFactsCSV(t, csvPath)
		if err := cmdOptimize([]string{"-dims", "x:2,2 y:3,2", "-page", "64", "-catalog", cat}); err != nil {
			t.Fatal(err)
		}
		c, _, _, err := loadCatalog(cat)
		if err != nil {
			t.Fatal(err)
		}
		c.Version = version
		if err := writeCatalog(cat, c); err != nil {
			t.Fatal(err)
		}
		if err := cmdBuild([]string{"-catalog", cat, "-csv", csvPath, "-store", store}); err != nil {
			t.Fatalf("build from a version %d optimize output: %v", version, err)
		}
		if c, _, _, err = loadCatalog(cat); err != nil || c.Version != catalogVersion {
			t.Fatalf("build left catalog version %d, %v; want %d", c.Version, err, catalogVersion)
		}
		if err := cmdQuery([]string{"-catalog", cat, "-store", store, "-sum", "0"}); err != nil {
			t.Fatalf("query on a fresh build: %v", err)
		}

		// The same store under an old catalog, mid-reorganization: the
		// catalog names generation 1 and generation 0 was never swept.
		if err := os.Rename(store, genPath(store, 1)); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(storage.ParityPath(store), storage.ParityPath(genPath(store, 1))); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(store, []byte("stale generation 0"), 0o644); err != nil {
			t.Fatal(err)
		}
		c.Version, c.Generation, c.StoreFile = version, 1, filepath.Base(genPath(store, 1))
		if err := writeCatalog(cat, c); err != nil {
			t.Fatal(err)
		}
		for name, cmd := range map[string]func([]string) error{"serve": cmdServe, "query": cmdQuery} {
			err := cmd([]string{"-catalog", cat, "-store", store})
			if !errors.Is(err, errOldStore) || errors.Is(err, errUsage) {
				t.Errorf("%s on a version %d store: err = %v, want errOldStore and exit 1", name, version, err)
			}
		}
		if _, err := os.Stat(store); err != nil {
			t.Errorf("a refused serve swept the stale generation: %v", err)
		}
		if err := cmdVerify([]string{"-catalog", cat, "-store", store}); err != nil {
			t.Errorf("verify on a version %d store: %v", version, err)
		}
		if err := cmdVerify([]string{"-catalog", cat, "-store", store, "-repair"}); err != nil {
			t.Errorf("verify -repair on a version %d store: %v", version, err)
		}

		if err := cmdBuild([]string{"-catalog", cat, "-csv", csvPath, "-store", store}); err != nil {
			t.Fatal(err)
		}
		if err := cmdQuery([]string{"-catalog", cat, "-store", store, "-sum", "0"}); err != nil {
			t.Errorf("query after the rebuild: %v", err)
		}
		if _, err := os.Stat(genPath(store, 1)); !os.IsNotExist(err) {
			t.Errorf("the rebuild left generation 1 behind (err = %v)", err)
		}
	}

	// A version 4 store — rows encoded before there was a row dictionary, as
	// that release's build wrote testdata/v4store —, a version 5 store —
	// framed rows coded against one, built from the same CSV by the release
	// before row templates (testdata/v5store) — and a version 6 store —
	// packed blocks framed as tagged records, built from that CSV by the
	// release before frameless cells (testdata/v6store) — still serve, and
	// answer every sum, every record count and every error as a rebuild of
	// that CSV under the current version, whose cells are frameless, does.
	old := map[int]string{4: t.TempDir(), 5: t.TempDir(), 6: t.TempDir()}
	fresh := t.TempDir()
	for _, name := range []string{"cat.json", "facts.csv", "facts.db", "facts.db.parity"} {
		for version, dir := range old {
			data, err := os.ReadFile(filepath.Join("testdata", fmt.Sprintf("v%dstore", version), name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
			if version == 4 {
				if err := os.WriteFile(filepath.Join(fresh, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for version, dir := range old {
		c, _, _, err := loadServableCatalog(filepath.Join(dir, "cat.json"))
		if err != nil || c.Version != version || (c.Dict != nil) != (version >= 5) || (c.Template != nil) != (version >= 6) || c.Dict.Frameless() {
			t.Fatalf("the version %d catalog: %v", version, err)
		}
	}
	freshCat, freshStore := filepath.Join(fresh, "cat.json"), filepath.Join(fresh, "facts.db")
	if err := cmdBuild([]string{"-catalog", freshCat, "-csv", filepath.Join(fresh, "facts.csv"), "-store", freshStore, "-frames", "8"}); err != nil {
		t.Fatal(err)
	}
	if c, _, _, err := loadCatalog(freshCat); err != nil || c.Version != catalogVersion || c.Dict == nil || c.Dict.Width() == 0 || !c.Dict.Frameless() {
		t.Fatalf("the rebuild's catalog: %v", err)
	}
	for _, region := range []snakes.Region{{{Lo: 0, Hi: 4}, {Lo: 0, Hi: 6}}, {{Lo: 1, Hi: 3}, {Lo: 0, Hi: 6}}, {{Lo: 0, Hi: 2}, {Lo: 2, Hi: 5}}, {{Lo: 3, Hi: 4}, {Lo: 5, Hi: 6}}} {
		for col := 0; col < 4; col++ {
			n6, s6 := cliSum(t, freshCat, freshStore, region, col)
			for version, dir := range old {
				n, s := cliSum(t, filepath.Join(dir, "cat.json"), filepath.Join(dir, "facts.db"), region, col)
				if n != n6 || math.Float64bits(s) != math.Float64bits(s6) {
					t.Errorf("sum of column %d over %v: version %d store %d records %v, rebuilt %d records %v", col, region, version, n, s, n6, s6)
				}
			}
		}
	}
	for _, col := range []string{"4", "7", "8"} {
		err6 := cmdQuery([]string{"-catalog", freshCat, "-store", freshStore, "-sum", col})
		for version, dir := range old {
			err := cmdQuery([]string{"-catalog", filepath.Join(dir, "cat.json"), "-store", filepath.Join(dir, "facts.db"), "-sum", col})
			if err == nil || err6 == nil || err.Error() != err6.Error() {
				t.Errorf("sum of text column %s: version %d store %v, rebuilt %v", col, version, err, err6)
			}
		}
	}
	_, want := cliSum(t, freshCat, freshStore, snakes.Region{{Lo: 0, Hi: 4}, {Lo: 0, Hi: 6}}, 0)
	for version, dir := range old {
		c, schema, strat, err := loadServableCatalog(filepath.Join(dir, "cat.json"))
		if err != nil {
			t.Fatal(err)
		}
		st, err := strat.OpenFileStore(filepath.Join(dir, "facts.db"), c.BytesPer, c.PageBytes, 8, c.LoadedBytes)
		if err != nil {
			t.Fatal(err)
		}
		adm, err := storage.NewAdmission(64, 0)
		if err != nil {
			t.Fatal(err)
		}
		srv := newServer(st, schema, c, adm, 0, trace.Config{})
		ts := httptest.NewServer(srv.handler())
		var q queryResponse
		getJSON(t, ts, regionQuery(snakes.Region{{Lo: 0, Hi: 4}, {Lo: 0, Hi: 6}}, 0), http.StatusOK, &q)
		if q.Records != 48 || q.Sum == nil || math.Float64bits(*q.Sum) != math.Float64bits(want) {
			t.Errorf("serving the version %d store: %d records sum %v, rebuilt store %v", version, q.Records, fmtSum(q.Sum), want)
		}
		ts.Close()
		srv.closeStore()
	}
}

// TestCatalogDictionaryRefused: a catalog whose row dictionary no build
// wrote — too many skeletons in a column, an over-long or repeated
// skeleton, a negative column index — is refused at load with the codec's
// typed error, by every command and as a state error (exit 1), so no
// decoder ever indexes into it.
func TestCatalogDictionaryRefused(t *testing.T) {
	dir := t.TempDir()
	cat, store, csvPath := filepath.Join(dir, "cat.json"), filepath.Join(dir, "facts.db"), filepath.Join(dir, "facts.csv")
	writeFactsCSV(t, csvPath)
	if err := cmdOptimize([]string{"-dims", "x:2,2 y:3,2", "-page", "64", "-catalog", cat}); err != nil {
		t.Fatal(err)
	}
	if err := cmdBuild([]string{"-catalog", cat, "-csv", csvPath, "-store", store}); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(cat)
	if err != nil {
		t.Fatal(err)
	}
	many := make([]string, 256)
	for i := range many {
		many[i] = fmt.Sprintf("v%d", i%9+1) + strings.Repeat("x", i)
	}
	manyJSON, _ := json.Marshal(many)
	for name, dict := range map[string]string{
		"256 skeletons":      `[{"column":0,"skeletons":` + string(manyJSON) + `}]`,
		"over-long":          `[{"column":0,"skeletons":["` + strings.Repeat("x", 256) + `"]}]`,
		"duplicate":          `[{"column":1,"skeletons":["N","N"]}]`,
		"negative column":    `[{"column":-1,"skeletons":["N"]}]`,
		"a run of 20 digits": `[{"column":2,"skeletons":["v20"]}]`,
	} {
		bad := strings.Replace(string(good), `"pageBytes"`, `"dictionary": `+dict+`, "pageBytes"`, 1)
		if err := os.WriteFile(cat, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		var de *rowcodec.DictError
		if _, _, _, err := loadCatalog(cat); !errors.As(err, &de) {
			t.Errorf("%s: loadCatalog err = %v, want a *rowcodec.DictError", name, err)
		}
		for cmdName, cmd := range map[string]func([]string) error{"serve": cmdServe, "query": cmdQuery, "verify": cmdVerify} {
			if err := cmd([]string{"-catalog", cat, "-store", store}); !errors.As(err, &de) || errors.Is(err, errUsage) {
				t.Errorf("%s: %s err = %v, want the dictionary error and exit 1", name, cmdName, err)
			}
		}
	}
}

func TestWriteCatalogAtomicSurvivesStaleTemp(t *testing.T) {
	dir := t.TempDir()
	cat := filepath.Join(dir, "cat.json")
	if err := cmdOptimize([]string{"-dims", "a:2 b:2", "-catalog", cat}); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(cat)
	if err != nil {
		t.Fatal(err)
	}
	// A crash between temp-write and rename leaves a stale .tmp behind;
	// the real catalog must be untouched and still loadable.
	if err := os.WriteFile(cat+".tmp", []byte("garbage from a crashed build"), 0o644); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(cat)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("stale temp file clobbered the catalog")
	}
	c, _, _, err := loadCatalog(cat)
	if err != nil {
		t.Fatalf("catalog unreadable next to a stale temp: %v", err)
	}
	// The next atomic write replaces both the catalog and the stale temp.
	c.PageBytes = 4096
	if err := writeCatalog(cat, c); err != nil {
		t.Fatal(err)
	}
	c2, _, _, err := loadCatalog(cat)
	if err != nil {
		t.Fatal(err)
	}
	if c2.PageBytes != 4096 {
		t.Fatalf("PageBytes = %d after rewrite", c2.PageBytes)
	}
	if _, err := os.Stat(cat + ".tmp"); !os.IsNotExist(err) {
		t.Error("temp file left behind after a successful write")
	}
}

func TestExitClassification(t *testing.T) {
	dir := t.TempDir()
	cat := filepath.Join(dir, "cat.json")
	// Bad invocation inputs are usage errors (exit 2)…
	if err := cmdOptimize([]string{"-dims", "nonsense", "-catalog", cat}); !errors.Is(err, errUsage) {
		t.Errorf("bad -dims: err = %v, want usage error", err)
	}
	if err := cmdOptimize([]string{"-dims", "a:2 b:2", "-catalog", cat}); err != nil {
		t.Fatal(err)
	}
	if err := cmdQuery([]string{"-catalog", cat, "-where", "zz=0..1"}); errors.Is(err, errUsage) {
		t.Errorf("unbuilt catalog should fail before region parsing as a state error, got %v", err)
	}
	// …while missing files are I/O errors (exit 1).
	if err := cmdQuery([]string{"-catalog", filepath.Join(dir, "missing.json")}); errors.Is(err, errUsage) || err == nil {
		t.Errorf("missing catalog: err = %v, want non-usage error", err)
	}
}

// TestBuildRefusesOversizedGrid: build on a schema whose grid int32 cannot
// index exits 1 with the typed error before it sizes anything by the cell
// count (its per-cell array would be 32 GiB here), and leaves no store file.
func TestBuildRefusesOversizedGrid(t *testing.T) {
	dir := t.TempDir()
	cat := filepath.Join(dir, "cat.json")
	store := filepath.Join(dir, "facts.db")
	csvPath := filepath.Join(dir, "facts.csv")
	if err := os.WriteFile(csvPath, []byte("0,0,1.5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdOptimize([]string{"-dims", "a:65536 b:65536", "-catalog", cat}); err != nil {
		t.Fatal(err)
	}
	err := cmdBuild([]string{"-catalog", cat, "-csv", csvPath, "-store", store})
	if !errors.Is(err, snakes.ErrGridTooLarge) || errors.Is(err, errUsage) {
		t.Fatalf("build on a 2^32-cell grid: err = %v, want ErrGridTooLarge and exit 1", err)
	}
	if _, err := os.Stat(store); !os.IsNotExist(err) {
		t.Errorf("the refused build left a store file (err = %v)", err)
	}
}

func TestParseRegion(t *testing.T) {
	schema, err := parseSchema("a:4 b:2,3")
	if err != nil {
		t.Fatal(err)
	}
	dims := []snakes.Dimension{snakes.Dim("a", 4), snakes.Dim("b", 2, 3)}
	r, err := parseRegion(schema, dims, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r[0].Hi != 4 || r[1].Hi != 6 {
		t.Errorf("default region = %v", r)
	}
	r, err = parseRegion(schema, dims, []string{"b=2..5"})
	if err != nil {
		t.Fatal(err)
	}
	if r[1].Lo != 2 || r[1].Hi != 5 || r[0].Hi != 4 {
		t.Errorf("restricted region = %v", r)
	}
	for _, bad := range []string{"b", "c=0..1", "b=x..2", "b=0..x", "b=3..2", "b=0..9"} {
		if _, err := parseRegion(schema, dims, []string{bad}); err == nil {
			t.Errorf("restriction %q should fail", bad)
		}
	}
}

func TestScanCSVErrors(t *testing.T) {
	dir := t.TempDir()
	schema, err := parseSchema("a:2 b:2")
	if err != nil {
		t.Fatal(err)
	}
	st, err := schema.RowMajor(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	order, err := st.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	nop := func(int, []byte) error { return nil }
	if err := scanCSV(filepath.Join(dir, "missing.csv"), 2, order, nop); err == nil {
		t.Error("missing file should fail")
	}
	if err := scanCSV(write("short.csv", "0\n"), 2, order, nop); err == nil {
		t.Error("too-few columns should fail")
	}
	if err := scanCSV(write("badcoord.csv", "0,zz,1\n"), 2, order, nop); err == nil {
		t.Error("non-numeric coordinate should fail")
	}
	if err := scanCSV(write("ok.csv", "x,y,v\n1,1,5\n"), 2, order, nop); err != nil {
		t.Errorf("header row should be skipped: %v", err)
	}
}

// TestCatalogPerCellArraysOneLineEach: the two per-cell arrays are written on
// one line each under their old keys, the rest of the catalog stays indented,
// any JSON reader gets the same values back, and a catalog written the old
// way — one number a line — still loads to the same state.
func TestCatalogPerCellArraysOneLineEach(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cat.json")
	if err := cmdOptimize([]string{"-dims", "a:2 b:2", "-catalog", path}); err != nil {
		t.Fatal(err)
	}
	cat, _, _, err := loadCatalog(path)
	if err != nil {
		t.Fatal(err)
	}
	cat.BytesPer, cat.LoadedBytes = []int64{16, 0, 32, 4096}, []int64{8, 0, 32, 0}
	cat.Generation, cat.StoreFile = 2, "facts.db.g2"
	if err := writeCatalog(path, cat); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"\n  \"bytesPerCell\": [16,0,32,4096],\n", "\n  \"loadedBytes\": [8,0,32,0]\n}\n", "\n  \"generation\": 2,\n"} {
		if !strings.Contains(string(data), line) {
			t.Errorf("catalog lacks the line %q:\n%s", line, data)
		}
	}
	var generic struct {
		BytesPer    []int64 `json:"bytesPerCell"`
		LoadedBytes []int64 `json:"loadedBytes"`
	}
	if err := json.Unmarshal(data, &generic); err != nil || !reflect.DeepEqual(generic.BytesPer, cat.BytesPer) || !reflect.DeepEqual(generic.LoadedBytes, cat.LoadedBytes) {
		t.Errorf("a plain JSON reader sees %+v, %v", generic, err)
	}
	back, _, _, err := loadCatalog(path)
	if err != nil || !reflect.DeepEqual(back, cat) {
		t.Fatalf("round trip: %+v, %v; want %+v", back, err, cat)
	}
	old, err := json.MarshalIndent(cat, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if back, _, _, err = loadCatalog(path); err != nil || !reflect.DeepEqual(back, cat) {
		t.Fatalf("parent-format catalog: %+v, %v; want %+v", back, err, cat)
	}
}

func TestCatalogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cat.json")
	if err := cmdOptimize([]string{"-dims", "a:2 b:2", "-catalog", path}); err != nil {
		t.Fatal(err)
	}
	cat, schema, strat, err := loadCatalog(path)
	if err != nil {
		t.Fatal(err)
	}
	if cat.PageBytes != 8192 {
		t.Errorf("PageBytes = %d", cat.PageBytes)
	}
	if schema.NumCells() != 4 {
		t.Errorf("NumCells = %d", schema.NumCells())
	}
	if !strat.Snaked {
		t.Error("optimize should store a snaked strategy")
	}
	if _, _, _, err := loadCatalog(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing catalog should fail")
	}
	if err := os.WriteFile(path, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := loadCatalog(path); err == nil {
		t.Error("corrupt catalog should fail")
	}
}

// readRegion plans r and reads its rows, each cell decoded under d, as a
// row caller does.
func readRegion(ctx context.Context, st *snakes.FileStore, r snakes.Region, d *rowcodec.Dict, fn func(cell int, row []byte) error) error {
	plan, err := st.Plan(ctx, r)
	if err != nil {
		return err
	}
	return st.ReadPlanCellsCtx(ctx, plan, func(cell int, b []byte) error {
		text, err := rowcodec.DecodeCell(d, nil, b)
		if err != nil || len(b) == 0 {
			return err
		}
		for _, row := range bytes.Split(text, []byte("\n")) {
			if err := fn(cell, row); err != nil {
				return err
			}
		}
		return nil
	})
}

// TestBuildTemplateFromCommonShape: build takes the row template from the
// shape most rows have, not from the first row. With an outlier first — a
// row with another fraction count — every cell of rows of the common shape
// is packed, W bytes a row with nothing else, the outlier's cell alone
// framed, and every row reads back. (A CSV row with one column more is
// refused by the CSV reader; the codec's test covers that outlier.)
func TestBuildTemplateFromCommonShape(t *testing.T) {
	for _, outlier := range []float64{5.25, 5} {
		dir := t.TempDir()
		cat, store, csvPath := filepath.Join(dir, "cat.json"), filepath.Join(dir, "facts.db"), filepath.Join(dir, "facts.csv")
		var csv strings.Builder
		fmt.Fprintf(&csv, "0,0,%v\n", outlier)
		want := outlier
		for x := 0; x < 4; x++ {
			for y := 0; y < 6; y++ {
				if x+y > 0 {
					fmt.Fprintf(&csv, "%d,%d,%d.5\n", x, y, 10*x+y)
					want += float64(10*x+y) + 0.5
				}
			}
		}
		if err := os.WriteFile(csvPath, []byte(csv.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := cmdOptimize([]string{"-dims", "x:2,2 y:3,2", "-page", "64", "-catalog", cat}); err != nil {
			t.Fatal(err)
		}
		if err := cmdBuild([]string{"-catalog", cat, "-csv", csvPath, "-store", store}); err != nil {
			t.Fatal(err)
		}
		c, _, strat, err := loadServableCatalog(cat)
		if err != nil {
			t.Fatal(err)
		}
		o, err := strat.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		w := int64(c.Dict.Width())
		for x := 0; x < 4; x++ {
			for y := 0; y < 6; y++ {
				got := c.LoadedBytes[o.CellIndex([]int{x, y})]
				if packed := got == w; packed != (x+y > 0) {
					t.Errorf("outlier %v first: cell (%d,%d) holds %d bytes at W = %d", outlier, x, y, got, w)
				}
			}
		}
		if n, sum := cliSum(t, cat, store, snakes.Region{{Lo: 0, Hi: 4}, {Lo: 0, Hi: 6}}, 0); n != 24 || sum != want {
			t.Errorf("outlier %v first: %d rows sum %v, want 24 rows sum %v", outlier, n, sum, want)
		}
	}
}

// TestVersion6StoreIngestRestart: a version 6 store served by this binary
// takes an ingest whose fold moves a fill, which re-commits its catalog at
// the current version. The template still has no marker bit, so after a
// restart the cells still read as version 6 cells: every sum is the one the
// daemon answered before, verify is clean, and a migration of the store
// copies every cell byte for byte and answers the same sums.
func TestVersion6StoreIngestRestart(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"cat.json", "facts.csv", "facts.db", "facts.db.parity"} {
		data, err := os.ReadFile(filepath.Join("testdata", "v6store", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	catPath, storePath := filepath.Join(dir, "cat.json"), filepath.Join(dir, "facts.db")
	regions := []snakes.Region{{{Lo: 0, Hi: 4}, {Lo: 0, Hi: 6}}, {{Lo: 0, Hi: 1}, {Lo: 0, Hi: 6}}, {{Lo: 1, Hi: 3}, {Lo: 2, Hi: 5}}}
	serve := func() (*server, *httptest.Server) {
		c, schema, strat, err := loadServableCatalog(catPath)
		if err != nil {
			t.Fatal(err)
		}
		st, err := strat.OpenFileStore(storePath, c.BytesPer, c.PageBytes, 8, c.LoadedBytes)
		if err != nil {
			t.Fatal(err)
		}
		adm, err := storage.NewAdmission(64, 0)
		if err != nil {
			t.Fatal(err)
		}
		srv := newServer(st, schema, c, adm, 0, trace.Config{})
		if err := srv.enableIngest(catPath, storePath, c, testDeltaOptions(), testIngestConfig()); err != nil {
			t.Fatal(err)
		}
		return srv, httptest.NewServer(srv.handler())
	}
	sums := func(ts *httptest.Server) []queryResponse {
		var out []queryResponse
		for _, r := range regions {
			for col := 0; col < 4; col++ {
				var q queryResponse
				getJSON(t, ts, regionQuery(r, col), http.StatusOK, &q)
				q.Pages, q.PagesRead, q.Seeks, q.DeltaCells, q.TraceID = 0, 0, 0, 0, 0
				out = append(out, q)
			}
		}
		return out
	}

	srv, ts := serve()
	before, _, _, err := loadCatalog(catPath)
	if err != nil {
		t.Fatal(err)
	}
	// Cell (0,1) holds two rows; one of the same shape in their place is a
	// shorter version 6 packed block.
	row := "1158.38,3,0.02,0.02,R,O,SHIP,lineitem 000209458 v0000 carefully final deposits sl"
	ingestOne(t, ts, []int{0, 1}, row)
	if stats := tickIngest(t, srv); stats.CellsApplied != 1 || stats.PendingCells != 0 {
		t.Fatalf("tick = %+v, want the cell folded", stats)
	}
	want := sums(ts)
	ts.Close()
	srv.closeIngest()
	srv.closeStore()
	after, _, _, err := loadServableCatalog(catPath)
	if err != nil || after.Version != catalogVersion || reflect.DeepEqual(after.LoadedBytes, before.LoadedBytes) || after.Dict.Frameless() {
		t.Fatalf("the re-committed catalog: version %d, fills moved %v, frameless %v, %v",
			after.Version, !reflect.DeepEqual(after.LoadedBytes, before.LoadedBytes), after.Dict.Frameless(), err)
	}

	srv, ts = serve()
	if got := sums(ts); !reflect.DeepEqual(got, want) {
		t.Errorf("after the restart: %+v\nbefore it: %+v", got, want)
	}
	var q queryResponse
	getJSON(t, ts, regionQuery(snakes.Region{{Lo: 0, Hi: 1}, {Lo: 1, Hi: 2}}, 0), http.StatusOK, &q)
	if q.Records != 1 || q.Sum == nil || *q.Sum != 1158.38 {
		t.Errorf("the rewritten cell reads %+v, want its one row", q)
	}
	ts.Close()
	srv.closeIngest()
	srv.closeStore()
	if err := cmdVerify([]string{"-catalog", catPath, "-store", storePath}); err != nil {
		t.Fatalf("verify after the restart: %v", err)
	}

	migratesByteForByte(t, catPath, storePath)

	// So does a version 7 store, built from the same CSV.
	freshCat, freshStore := filepath.Join(dir, "v7.json"), filepath.Join(dir, "v7.db")
	data, err := os.ReadFile(filepath.Join("testdata", "v6store", "cat.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(freshCat, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdBuild([]string{"-catalog", freshCat, "-csv", filepath.Join(dir, "facts.csv"), "-store", freshStore}); err != nil {
		t.Fatal(err)
	}
	migratesByteForByte(t, freshCat, freshStore)
}

// migratesByteForByte migrates the store onto its own strategy and holds
// every cell of the copy to the source's bytes.
func migratesByteForByte(t *testing.T, catPath, storePath string) {
	t.Helper()
	c, _, strat, err := loadServableCatalog(catPath)
	if err != nil {
		t.Fatal(err)
	}
	st, err := strat.OpenFileStore(storePath, c.BytesPer, c.PageBytes, 8, c.LoadedBytes)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	moved, err := strat.MigrateCtx(context.Background(), st, storePath+".moved", 8)
	if err != nil {
		t.Fatal(err)
	}
	defer moved.Close()
	o := st.Layout().Order()
	for cell := 0; cell < o.Len(); cell++ {
		var a, b []byte
		st.ReadCellCtx(context.Background(), cell, func(cb []byte) error { a = append([]byte(nil), cb...); return nil })
		moved.ReadCellCtx(context.Background(), cell, func(cb []byte) error { b = append([]byte(nil), cb...); return nil })
		if !bytes.Equal(a, b) || len(a) == 0 {
			t.Fatalf("%s: cell %d migrated as %x, was %x", catPath, cell, b, a)
		}
	}
}
