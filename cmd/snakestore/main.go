// Command snakestore is a miniature clustered fact store: it optimizes a
// clustering strategy for a workload, bulk-loads CSV records into a paged
// file clustered by that strategy, and answers grid queries with real
// page/seek accounting.
//
// Workflow:
//
//	snakestore optimize -dims "region:4,2 day:30,12" \
//	    -workload "0,1:0.6 1,1:0.4" -catalog cat.json
//	snakestore build -catalog cat.json -csv facts.csv -store facts.db
//	snakestore query -catalog cat.json -store facts.db \
//	    -where "region=3..7" -where "day=0..30" [-sum 2]
//	snakestore verify -catalog cat.json -store facts.db
//	snakestore serve -catalog cat.json -store facts.db -addr :7133
//
// slo validates a -slo objective spec ("default=250ms@99.9;0,2=50ms@99"),
// optionally against a catalog's class set, and prints the resolved
// per-class objectives — the dry-run companion of serve's -slo flag.
//
// serve answers grid queries and scrubs over HTTP (/query, /verify,
// /healthz) against one shared store: requests run concurrently through the
// goroutine-safe buffer pool, admission control sheds excess load with 503,
// each request is bounded by a deadline, and SIGTERM drains in-flight
// requests before flushing and closing the store (while /healthz fails over
// to 503 "draining"). /metrics exposes pool, admission, and request
// telemetry in the Prometheus text format; -pprof mounts net/http/pprof
// under /debug/pprof/; every request is logged in key=value form with a
// unique request id, through a buffer flushed every 100 ms and at once after
// any warning.
//
// CSV layout: the first k columns are the record's leaf coordinates, one
// per dimension in schema order; remaining columns are payload, stored
// through the row codec (internal/rowcodec) and summed in place. The catalog
// JSON written by optimize (and updated by build) carries the schema, the
// chosen strategy, and the load state, so query needs no other input.
//
// Durability: catalog writes are atomic (write temp, fsync, rename); build
// marks the catalog dirty before touching the store file and clears the
// flag only after a complete, flushed load, so an interrupted build is
// detected on the next open. verify scrubs the store: every page is
// re-read from disk, its CRC32C trailer checked, and every cell's record
// framing walked. Exit status: 0 on success, 1 on I/O or corruption
// errors, 2 on usage errors.
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"

	snakes "repro"
	"repro/internal/ingest"
	"repro/internal/rowcodec"
	"repro/internal/storage"
)

// catalogVersion is the current catalog format. Version 4 says the store's
// rows went through the row codec (internal/rowcodec); version 5 adds the
// row dictionary build learns, version 6 the row template, under which a
// cell whose rows all fit it is one packed block, and version 7 frameless
// cells: a packed cell is its rows alone. Version 4 to 6 stores still
// serve. Older versions are still readable — an optimize output of any
// version feeds build, and verify works on the framing alone — but a store
// loaded under one holds text rows, which nothing decodes any more:
// loadServableCatalog refuses it. Writes always upgrade to the current
// version, so what a cell's bytes are comes from the template (whether it
// reserves the marker bit), never from the version.
const catalogVersion = 7

// minServableVersion is the oldest catalog whose store holds encoded rows.
const minServableVersion = 4

// errOldStore marks a store loaded before rows were encoded.
var errOldStore = errors.New("built by an older snakestore: re-run build")

// loadServableCatalog is loadCatalog for the commands that decode rows
// (query, serve): the gate in front of every row decoder. It refuses a
// catalog whose build was interrupted, that was never built, or whose store
// holds pre-codec rows.
func loadServableCatalog(path string) (*catalog, *snakes.Schema, *snakes.Strategy, error) {
	cat, schema, strat, err := loadCatalog(path)
	switch {
	case err != nil:
	case cat.Dirty:
		err = fmt.Errorf("catalog %s is dirty: a build was interrupted before completion; re-run build to restore a consistent store", path)
	case cat.BytesPer == nil:
		err = fmt.Errorf("catalog has no load state; run build first")
	case cat.Version < minServableVersion:
		err = fmt.Errorf("catalog %s (version %d): store %w", path, cat.Version, errOldStore)
	}
	return cat, schema, strat, err
}

// catalog is the persistent description of one snakestore database.
type catalog struct {
	Version     int             `json:"version"`
	Schema      json.RawMessage `json:"schema"`
	Strategy    json.RawMessage `json:"strategy"`
	PageBytes   int             `json:"pageBytes"`
	Dirty       bool            `json:"dirty,omitempty"`
	BytesPer    []int64         `json:"bytesPerCell,omitempty"`
	LoadedBytes []int64         `json:"loadedBytes,omitempty"`
	// Generation and StoreFile record which physical file holds the live
	// store after adaptive reorganizations: generation 0 is the original
	// build at the base store path, generation N > 0 lives at base.gN. The
	// catalog is rewritten atomically before the old generation is deleted,
	// so a crash between the two leaves both files on disk and the catalog
	// pointing at the valid one.
	Generation int    `json:"generation,omitempty"`
	StoreFile  string `json:"storeFile,omitempty"`
	// Dict is the vocabulary build learned for the columns after each row's
	// binary ones: fixed at build, used by every later encoder and decoder
	// (/ingest, compaction, reorganization, /query), never changed by them.
	Dict *rowcodec.Dict `json:"dictionary,omitempty"`
	// Template is the row template build learned beside the dictionary:
	// the fixed width every packed cell's rows have (rowcodec.Template).
	Template *rowcodec.Template `json:"template,omitempty"`
}

// genPath returns the store file for a generation: the base path itself for
// generation 0, base.g<N> afterwards.
func genPath(base string, gen int) string {
	if gen <= 0 {
		return base
	}
	return fmt.Sprintf("%s.g%d", base, gen)
}

// activeStorePath resolves the file holding the catalog's live generation,
// relative to the -store base path the user passed.
func activeStorePath(cat *catalog, base string) string {
	if cat.StoreFile != "" {
		return filepath.Join(filepath.Dir(base), cat.StoreFile)
	}
	return genPath(base, cat.Generation)
}

// cleanStaleGenerations removes generation files left behind by a crash
// between the catalog swap and the old generation's deletion: every file
// matching the base name or base.g<N> — or one of their .parity or .delta
// sidecars — except the active generation and its sidecars. Returns the
// paths removed.
func cleanStaleGenerations(base, active string) ([]string, error) {
	dir := filepath.Dir(base)
	re := regexp.MustCompile(`^` + regexp.QuoteMeta(filepath.Base(base)) + `(\.g\d+)?(\.parity|\.delta)?$`)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var removed []string
	for _, e := range entries {
		if e.IsDir() || !re.MatchString(e.Name()) {
			continue
		}
		p := filepath.Join(dir, e.Name())
		if p == active || p == storage.ParityPath(active) || p == ingest.DeltaPath(active) {
			continue
		}
		if err := os.Remove(p); err != nil {
			return removed, err
		}
		removed = append(removed, p)
	}
	return removed, nil
}

// errUsage marks errors caused by bad invocation (exit 2) rather than I/O
// or corruption (exit 1).
var errUsage = errors.New("usage error")

func usagef(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errUsage, fmt.Sprintf(format, args...))
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "optimize":
		err = cmdOptimize(os.Args[2:])
	case "build":
		err = cmdBuild(os.Args[2:])
	case "query":
		err = cmdQuery(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "slo":
		err = cmdSLO(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "snakestore:", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: snakestore optimize|build|query|verify|serve|slo [flags]")
	os.Exit(2)
}

func cmdOptimize(args []string) error {
	fs := flag.NewFlagSet("optimize", flag.ExitOnError)
	dims := fs.String("dims", "", "dimensions as name:fanouts, space separated")
	wl := fs.String("workload", "", "workload as class:prob pairs; empty = uniform")
	page := fs.Int("page", 8192, "page size in bytes")
	out := fs.String("catalog", "catalog.json", "catalog file to write")
	if err := fs.Parse(args); err != nil {
		return err
	}
	schema, err := parseSchema(*dims)
	if err != nil {
		return usagef("%v", err)
	}
	w, err := parseWorkload(schema, *wl)
	if err != nil {
		return usagef("%v", err)
	}
	st, err := snakes.Optimize(w)
	if err != nil {
		return err
	}
	cost, err := st.ExpectedCost(w)
	if err != nil {
		return err
	}
	schemaJSON, err := snakes.MarshalSchema(schema)
	if err != nil {
		return err
	}
	stratJSON, err := snakes.MarshalStrategy(st)
	if err != nil {
		return err
	}
	cat := catalog{Version: catalogVersion, Schema: schemaJSON, Strategy: stratJSON, PageBytes: *page}
	if err := writeCatalog(*out, &cat); err != nil {
		return err
	}
	fmt.Printf("strategy %v (expected %.3f seeks/query) → %s\n", st, cost, *out)
	return nil
}

func cmdBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	catPath := fs.String("catalog", "catalog.json", "catalog file from optimize")
	csvPath := fs.String("csv", "", "input CSV: k leaf coordinates then payload columns")
	storePath := fs.String("store", "facts.db", "output page file")
	frames := fs.Int("frames", 1024, "buffer pool frames")
	parityGroup := fs.Int("parity-group", storage.DefaultParityGroup, "data pages per parity page in the repair sidecar; 0 skips parity")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cat, _, strat, err := loadCatalog(*catPath)
	if err != nil {
		return err
	}
	k := len(schemaDims(cat))
	if cat.Dirty {
		fmt.Fprintln(os.Stderr, "snakestore: catalog marked dirty (interrupted build); rebuilding from CSV")
	}

	// Mark the catalog dirty — atomically — before the store file is
	// touched. A crash anywhere in the load leaves the flag set, so the
	// next open knows the store and catalog may disagree. A rebuild starts
	// over at generation 0, so reorganized generations from an earlier
	// serve are stale and removed, and so are the writes a stopped daemon
	// left pending in the delta log: the CSV is the new content, and those
	// rows are coded against the old build's dictionary.
	cat.Version = catalogVersion
	cat.Dirty = true
	cat.BytesPer, cat.LoadedBytes, cat.Dict, cat.Template = nil, nil, nil, nil
	cat.Generation, cat.StoreFile = 0, ""
	if err := writeCatalog(*catPath, cat); err != nil {
		return err
	}
	if _, err := cleanStaleGenerations(*storePath, *storePath); err != nil {
		return err
	}
	if err := os.Remove(ingest.DeltaPath(*storePath)); err != nil && !os.IsNotExist(err) {
		return err
	}

	// Pass 1: learn the row dictionary and the row template, and size every
	// cell by its rows' encoded lengths under them, in one scan: a row is
	// sized under the dictionary as it stands once the row's own skeletons
	// are admitted, and nothing admitted is taken back, so pass 2 encodes
	// every row to the length sized here. The scan also counts the rows of
	// each shape; the template is the most common one's, and a cell packs
	// when all of its rows have that shape and the packed cell is no longer
	// than its framed rows (CellLen). The order comes first: it refuses a
	// grid too large to index before anything is sized by its cell count.
	order, err := strat.Materialize()
	if err != nil {
		return err
	}
	bytesPerCell := make([]int64, order.Len())
	rows := make([]int32, order.Len())
	shapes := make([]int32, order.Len()) // the shape of a cell's rows, NoShape when they differ
	dict := rowcodec.NewDict()
	var plainBytes, codedBytes int64
	if err := scanCSV(*csvPath, k, order, func(cell int, row []byte) error {
		n, plain, shape := dict.Learn(row)
		codedBytes += int64(n)
		plainBytes += int64(plain)
		bytesPerCell[cell] += rowcodec.FrameSize(n)
		if rows[cell] == 0 {
			shapes[cell] = int32(shape)
		} else if shapes[cell] != int32(shape) {
			shapes[cell] = rowcodec.NoShape
		}
		rows[cell]++
		return nil
	}); err != nil {
		return err
	}
	tmpl := dict.Template()
	var packedCells, cells int64
	for cell, n := range rows {
		if n == 0 {
			continue
		}
		cells++
		var packed bool
		bytesPerCell[cell], packed = dict.CellLen(int(n), bytesPerCell[cell], dict.Fits(int(shapes[cell])))
		if packed {
			packedCells++
		} else {
			rows[cell] = 0 // framed rows
		}
	}
	// Pass 2: load, a row at a time. A packed cell's rows are appended one
	// after the other; a framed cell's first row goes in after the marker
	// (rows[cell] then turns negative), and every row with its frame.
	store, err := strat.CreateFileStore(*storePath, bytesPerCell, cat.PageBytes, *frames)
	if err != nil {
		return err
	}
	var records int64
	var enc []byte
	if err := scanCSV(*csvPath, k, order, func(cell int, row []byte) error {
		records++
		if rows[cell] > 0 {
			var ok bool
			if enc, ok = rowcodec.Pack(dict, enc[:0], row); !ok {
				return fmt.Errorf("row does not fit the row template pass 1 learned: the CSV changed during the build")
			}
			return store.AppendBytes(cell, enc)
		}
		enc = enc[:0]
		if rows[cell] == 0 {
			enc = dict.AppendMarker(enc)
			rows[cell] = -1
		}
		return store.AppendBytes(cell, rowcodec.AppendFramedRow(dict, enc, row))
	}); err != nil {
		store.Close()
		return err
	}
	cat.BytesPer = bytesPerCell
	cat.LoadedBytes = store.LoadedBytes()
	cat.Dict, cat.Template = dict, tmpl
	// Write the repair sidecar while the loaded store is still open: parity
	// covers the flushed pages, so a later bit-flip on disk is repairable.
	if *parityGroup > 0 {
		if err := store.WriteParity(storage.ParityPath(*storePath), *parityGroup); err != nil {
			store.Close()
			return fmt.Errorf("building parity sidecar: %w", err)
		}
	}
	if err := store.Close(); err != nil {
		return err
	}
	// The store is complete and flushed: clear the dirty flag last.
	cat.Dirty = false
	if err := writeCatalog(*catPath, cat); err != nil {
		return err
	}
	fmt.Printf("loaded %d records into %s (%d pages of %d B)\n",
		records, *storePath, store.Layout().TotalPages(), cat.PageBytes)
	fmt.Println(dictSummary(dict, records, plainBytes, codedBytes))
	fmt.Printf("row template: %d B a row; %d of %d cells packed\n", dict.Width(), packedCells, cells)
	if *parityGroup > 0 {
		fmt.Printf("parity sidecar %s (group %d, %.1f%% overhead)\n",
			storage.ParityPath(*storePath), *parityGroup, 100.0/float64(*parityGroup))
	}
	return nil
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	catPath := fs.String("catalog", "catalog.json", "catalog file")
	storePath := fs.String("store", "facts.db", "page file from build")
	frames := fs.Int("frames", 1024, "buffer pool frames")
	sumCol := fs.Int("sum", -1, "payload column to sum (0-based, after the coordinate columns)")
	var wheres multiFlag
	fs.Var(&wheres, "where", "dimension restriction name=lo..hi (repeatable; unrestricted dims select all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cat, schema, strat, err := loadServableCatalog(*catPath)
	if err != nil {
		return err
	}
	region, err := parseRegion(schema, schemaDims(cat), wheres)
	if err != nil {
		return usagef("%v", err)
	}
	store, err := strat.OpenFileStore(activeStorePath(cat, *storePath), cat.BytesPer, cat.PageBytes, *frames, cat.LoadedBytes)
	if err != nil {
		return err
	}
	defer store.Close()

	ctx := context.Background()
	plan, err := store.Plan(ctx, region)
	if err != nil {
		return err
	}
	count, total, err := readSum(ctx, store, plan, cat.Dict, *sumCol)
	if err != nil {
		if errors.Is(err, storage.ErrCorruptPage) {
			reportCorruption(store, err)
		}
		return err
	}
	io := store.Pool().Stats()
	fmt.Printf("region %v: %d records", region, count)
	if *sumCol >= 0 {
		fmt.Printf(", sum(col %d) = %g", *sumCol, total)
	}
	fmt.Printf("  [%d page reads, %d hits]\n", io.Misses, io.Hits)
	return nil
}

// cmdVerify scrubs the store: every page re-read from disk with its
// checksum verified, every cell checked by the row codec, and the catalog's
// dirty flag surfaced. With -repair, corrupt pages are reconstructed from
// the parity sidecar instead of only reported: exit 0 when everything was
// repaired (the store re-verifies clean), 1 when damage is unrepairable.
func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	catPath := fs.String("catalog", "catalog.json", "catalog file")
	storePath := fs.String("store", "facts.db", "page file from build")
	frames := fs.Int("frames", 1024, "buffer pool frames")
	repair := fs.Bool("repair", false, "repair corrupt pages from the parity sidecar instead of only reporting")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cat, _, strat, err := loadCatalog(*catPath)
	if err != nil {
		return err
	}
	if cat.BytesPer == nil {
		return fmt.Errorf("catalog has no load state; run build first")
	}
	active := activeStorePath(cat, *storePath)
	store, err := strat.OpenFileStore(active, cat.BytesPer, cat.PageBytes, *frames, cat.LoadedBytes)
	if err != nil {
		return err
	}
	defer store.Close()
	store.SetCellCheck(cellCheck(cat.Dict))
	if *repair {
		if err := store.AttachParity(storage.ParityPath(active)); err != nil {
			return fmt.Errorf("-repair needs the parity sidecar: %w", err)
		}
		rrep, err := store.RepairCtx(context.Background())
		if err != nil {
			return fmt.Errorf("repair sweep aborted: %w", err)
		}
		fmt.Printf("swept %d pages, repaired %d\n", rrep.Pages, len(rrep.Repaired))
		for _, p := range rrep.Repaired {
			fmt.Printf("repaired page %d from parity\n", p)
		}
		for _, p := range rrep.Failed {
			fmt.Fprintln(os.Stderr, "snakestore: unrepairable:", p.String())
		}
		if !rrep.OK() {
			return fmt.Errorf("repair failed: %d page(s) unrepairable: %w", len(rrep.Failed), storage.ErrUnrepairable)
		}
	}
	rep, err := store.Verify()
	if err != nil {
		return fmt.Errorf("scrub aborted: %w", err)
	}
	fmt.Printf("scrubbed %d pages, %d records (%d cells)\n", rep.Pages, rep.Rows, rep.Cells)
	for _, p := range rep.Problems {
		fmt.Fprintln(os.Stderr, "snakestore: corrupt:", p.String())
	}
	if !rep.OK() {
		if *repair {
			return fmt.Errorf("repair left %d problem(s): %w", len(rep.Problems), storage.ErrCorruptPage)
		}
		return fmt.Errorf("verify failed: %d problem(s): %w", len(rep.Problems), storage.ErrCorruptPage)
	}
	if cat.Dirty {
		return fmt.Errorf("store pages are clean but catalog %s is dirty: a build was interrupted; re-run build", *catPath)
	}
	fmt.Println("store is clean")
	return nil
}

// cellCheck is the scrub walk's check of a cell under the row dictionary d
// and its template: its rows are the count /query gives.
func cellCheck(d *rowcodec.Dict) func(cell []byte) (int, error) {
	return func(cell []byte) (int, error) { return rowcodec.CheckCell(d, cell) }
}

// reportCorruption runs a scrub after a query tripped over ErrCorruptPage,
// printing each damaged page with its cell coordinates.
func reportCorruption(store *snakes.FileStore, cause error) {
	var cpe *storage.CorruptPageError
	if errors.As(cause, &cpe) {
		fmt.Fprintf(os.Stderr, "snakestore: corruption detected on page %d; scrubbing store\n", cpe.Page)
	}
	rep, err := store.Verify()
	if err != nil {
		fmt.Fprintln(os.Stderr, "snakestore: scrub aborted:", err)
		return
	}
	for _, p := range rep.Problems {
		fmt.Fprintln(os.Stderr, "snakestore: corrupt:", p.String())
	}
}

// multiFlag collects repeated -where flags.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, " ") }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }

// parseSchema parses "name:f1,f2 name2:f1" into a schema.
func parseSchema(spec string) (*snakes.Schema, error) {
	var dims []snakes.Dimension
	for _, tok := range strings.Fields(spec) {
		name, fans, ok := strings.Cut(tok, ":")
		if !ok {
			return nil, fmt.Errorf("dimension %q: want name:fanouts", tok)
		}
		var fanouts []int
		for _, f := range strings.Split(fans, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return nil, fmt.Errorf("dimension %q: %v", tok, err)
			}
			fanouts = append(fanouts, n)
		}
		dims = append(dims, snakes.Dim(name, fanouts...))
	}
	return snakes.BuildSchema(dims...)
}

// parseWorkload parses "i,j:p ..." class weights; empty means uniform.
func parseWorkload(s *snakes.Schema, spec string) (*snakes.Workload, error) {
	if strings.TrimSpace(spec) == "" {
		return s.UniformWorkload(), nil
	}
	w := s.NewWorkload()
	for _, tok := range strings.Fields(spec) {
		cls, prob, ok := strings.Cut(tok, ":")
		if !ok {
			return nil, fmt.Errorf("workload entry %q: want class:prob", tok)
		}
		var c snakes.Class
		for _, lv := range strings.Split(cls, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(lv))
			if err != nil {
				return nil, fmt.Errorf("workload entry %q: %v", tok, err)
			}
			c = append(c, n)
		}
		p, err := strconv.ParseFloat(prob, 64)
		if err != nil {
			return nil, fmt.Errorf("workload entry %q: %v", tok, err)
		}
		w.Set(c, p)
	}
	if err := w.Normalize(); err != nil {
		return nil, err
	}
	return w, nil
}

// parseRegion builds a region from repeated name=lo..hi restrictions;
// unmentioned dimensions select their full range.
func parseRegion(s *snakes.Schema, dims []snakes.Dimension, wheres []string) (snakes.Region, error) {
	region := make(snakes.Region, len(dims))
	for d, dim := range dims {
		leaves := 1
		for _, f := range dim.Fanouts {
			leaves *= f
		}
		region[d] = snakes.Range{Lo: 0, Hi: leaves}
	}
	for _, wh := range wheres {
		name, rng, ok := strings.Cut(wh, "=")
		if !ok {
			return nil, fmt.Errorf("restriction %q: want name=lo..hi", wh)
		}
		d := -1
		for i, dim := range dims {
			if dim.Name == name {
				d = i
				break
			}
		}
		if d < 0 {
			return nil, fmt.Errorf("restriction %q: no dimension %q", wh, name)
		}
		loS, hiS, ok := strings.Cut(rng, "..")
		if !ok {
			return nil, fmt.Errorf("restriction %q: want lo..hi", wh)
		}
		lo, err := strconv.Atoi(loS)
		if err != nil {
			return nil, fmt.Errorf("restriction %q: %v", wh, err)
		}
		hi, err := strconv.Atoi(hiS)
		if err != nil {
			return nil, fmt.Errorf("restriction %q: %v", wh, err)
		}
		if lo < 0 || hi <= lo || hi > region[d].Hi {
			return nil, fmt.Errorf("restriction %q: range [%d,%d) out of bounds [0,%d)", wh, lo, hi, region[d].Hi)
		}
		region[d] = snakes.Range{Lo: lo, Hi: hi}
	}
	return region, nil
}

// scanCSV streams the CSV, mapping each row's first k columns to a cell and
// handing fn the remaining columns, comma-joined, as the row's text — in a
// buffer the next row overwrites.
func scanCSV(path string, k int, order *snakes.Order, fn func(cell int, row []byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r := csv.NewReader(f)
	r.ReuseRecord = true
	line := 0
	coords := make([]int, k)
	var row []byte
	for {
		rec, err := r.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		line++
		if line == 1 && !numeric(rec[0]) {
			continue // header row
		}
		if len(rec) < k {
			return fmt.Errorf("line %d: %d columns, need at least %d coordinates", line, len(rec), k)
		}
		for d := 0; d < k; d++ {
			v, err := strconv.Atoi(strings.TrimSpace(rec[d]))
			if err != nil {
				return fmt.Errorf("line %d: coordinate %d: %v", line, d, err)
			}
			coords[d] = v
		}
		cell := order.CellIndex(coords)
		row = row[:0]
		for i, col := range rec[k:] {
			if i > 0 {
				row = append(row, ',')
			}
			row = append(row, col...)
		}
		if err := fn(cell, row); err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
	}
}

// dictSummary is build's line about the row dictionary: the payload columns
// it codes with their skeleton counts, and the encoded bytes per row without
// and with it.
func dictSummary(d *rowcodec.Dict, records, plainBytes, codedBytes int64) string {
	var cols []string
	for col, n := range d.Entries() {
		if n > 0 {
			cols = append(cols, fmt.Sprintf("%d:%d", col, n))
		}
	}
	coded := "none"
	if len(cols) > 0 {
		coded = strings.Join(cols, " ")
	}
	perRow := func(b int64) float64 { return float64(b) / float64(max(records, 1)) }
	return fmt.Sprintf("row dictionary: coded columns (column:skeletons) %s; %.1f → %.1f encoded bytes per row",
		coded, perRow(plainBytes), perRow(codedBytes))
}

func numeric(s string) bool {
	_, err := strconv.Atoi(strings.TrimSpace(s))
	return err == nil
}

// marshalCatalog renders the catalog as indented JSON with the two per-cell
// arrays last, one line each: at one number a line they were most of a
// 115,200-cell catalog's 1.8 MB. Same keys, so any JSON reader — and a
// catalog written the old way — still loads.
func marshalCatalog(cat *catalog) ([]byte, error) {
	head := *cat
	head.BytesPer, head.LoadedBytes = nil, nil
	data, err := json.MarshalIndent(&head, "", "  ")
	if err != nil {
		return nil, err
	}
	data = data[:len(data)-len("\n}")]
	for _, arr := range []struct {
		key  string
		vals []int64
	}{{"bytesPerCell", cat.BytesPer}, {"loadedBytes", cat.LoadedBytes}} {
		if len(arr.vals) == 0 {
			continue
		}
		data = append(data, ",\n  \""+arr.key+"\": ["...)
		for i, v := range arr.vals {
			if i > 0 {
				data = append(data, ',')
			}
			data = strconv.AppendInt(data, v, 10)
		}
		data = append(data, ']')
	}
	return append(data, "\n}\n"...), nil
}

// writeCatalog replaces the catalog atomically: the new content is written
// to a temp file, fsynced, and renamed over the old one, and the directory
// is fsynced so the rename survives a crash. A crash at any point leaves
// either the old or the new catalog intact — never a torn mix.
func writeCatalog(path string, cat *catalog) error {
	data, err := marshalCatalog(cat)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return storage.SyncDir(filepath.Dir(path))
}

func loadCatalog(path string) (*catalog, *snakes.Schema, *snakes.Strategy, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, nil, err
	}
	var cat catalog
	if err := json.Unmarshal(data, &cat); err != nil {
		return nil, nil, nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	if cat.Version < 1 || cat.Version > catalogVersion {
		return nil, nil, nil, fmt.Errorf("%s: unsupported catalog version %d (this binary reads 1..%d)", path, cat.Version, catalogVersion)
	}
	schema, err := snakes.UnmarshalSchema(cat.Schema)
	if err != nil {
		return nil, nil, nil, err
	}
	strat, err := snakes.UnmarshalStrategy(schema, cat.Strategy)
	if err != nil {
		return nil, nil, nil, err
	}
	if cat.Template != nil {
		if cat.Dict == nil {
			return nil, nil, nil, fmt.Errorf("%s: a row template without a row dictionary", path)
		}
		if err := cat.Dict.SetTemplate(cat.Template); err != nil {
			return nil, nil, nil, err
		}
	}
	return &cat, schema, strat, nil
}

// schemaDims re-decodes the dimension list from the catalog's schema blob.
func schemaDims(cat *catalog) []snakes.Dimension {
	var sj struct {
		Dims []snakes.Dimension `json:"dims"`
	}
	_ = json.Unmarshal(cat.Schema, &sj)
	return sj.Dims
}
