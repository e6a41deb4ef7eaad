package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	snakes "repro"
	"repro/internal/rowcodec"
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
	if err := readRegion(context.Background(), fs, region, func(cell int, rec []byte) error {
		v, err := rowcodec.Column(rec, 0)
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
	if !errors.Is(err, snakes.ErrCorruptPage) {
		t.Fatalf("verify over a flipped byte: err = %v, want ErrCorruptPage", err)
	}
	// The query path trips over the same damage instead of returning
	// silently wrong numbers.
	if err := cmdQuery([]string{"-catalog", cat, "-store", store}); !errors.Is(err, snakes.ErrCorruptPage) {
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
// output of any version, which has no load state, feeds build as before.
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
		if err := os.Rename(snakes.ParityPath(store), snakes.ParityPath(genPath(store, 1))); err != nil {
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

// readRegion plans r and reads its records, as a record caller does.
func readRegion(ctx context.Context, st *snakes.FileStore, r snakes.Region, fn func(cell int, rec []byte) error) error {
	plan, err := st.Plan(ctx, r)
	if err != nil {
		return err
	}
	return st.ReadPlanCtx(ctx, plan, fn)
}
