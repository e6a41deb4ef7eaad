package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzCatalogRoundTrip feeds arbitrary bytes through loadCatalog and, for
// anything that parses, requires the atomic writer to reach a stable
// fixpoint: write → load → write must reproduce the same bytes, so no
// catalog state is lost or mangled across a save/restore cycle. Version 3,
// 4, 5 and 6 catalogs with load state are seeded, the last two with a row
// dictionary and the last with a row template: all round-trip, and only the
// first is refused by the row-format gate. A malformed dictionary and a
// template whose code width is not its dictionary's are seeded too:
// loadCatalog refuses them.
func FuzzCatalogRoundTrip(f *testing.F) {
	seedDir := f.TempDir()
	seedCat := filepath.Join(seedDir, "cat.json")
	if err := cmdOptimize([]string{"-dims", "x:2,2 y:3,2", "-workload", "0,1:1", "-catalog", seedCat}); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(seedCat)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte("{"))
	f.Add([]byte(`{"version":2}`))
	f.Add([]byte(`{"version":1,"schema":{},"strategy":{},"pageBytes":8192}`))
	f.Add([]byte(`{"version":99,"schema":{},"strategy":{}}`))
	f.Add([]byte(`{"version":2,"dirty":true,"schema":{},"strategy":{}}`))
	f.Add(bytes.Replace(seed, []byte(`"version": 6`), []byte(`"version": 3, "bytesPerCell": [8], "loadedBytes": [8]`), 1))
	f.Add(bytes.Replace(seed, []byte(`"version": 6`), []byte(`"version": 4, "bytesPerCell": [8], "loadedBytes": [8]`), 1))
	f.Add(bytes.Replace(seed, []byte(`"version": 6`), []byte(`"version": 5, "bytesPerCell": [8], "loadedBytes": [8], "dictionary": [{"column": 4, "skeletons": ["N", "R", "A"]}, {"column": 7, "skeletons": ["lineitem 9 v4 carefully", ""]}]`), 1))
	f.Add(bytes.Replace(seed, []byte(`"version": 6`), []byte(`"version": 5, "bytesPerCell": [8], "loadedBytes": [8], "dictionary": [{"column": -4, "skeletons": ["N", "N"]}]`), 1))
	f.Add(bytes.Replace(seed, []byte(`"version": 6`), []byte(`"version": 6, "bytesPerCell": [8], "loadedBytes": [8], "dictionary": [{"column": 1, "skeletons": ["N", "R", "A"]}, {"column": 2, "skeletons": ["lineitem 9 v4 carefully"]}], "template": {"decimals": [{"frac": 2, "digits": 8, "signed": true}], "coded": [{"codeBits": 2}, {"codeBits": 0, "runBits": [30, 14]}]}`), 1))
	f.Add(bytes.Replace(seed, []byte(`"version": 6`), []byte(`"version": 6, "bytesPerCell": [8], "loadedBytes": [8], "dictionary": [{"column": 1, "skeletons": ["N", "R", "A"]}], "template": {"decimals": [{"frac": 2, "digits": 8}], "coded": [{"codeBits": 1}]}`), 1))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "cat.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		cat, _, _, err := loadCatalog(path)
		if err != nil {
			return // rejecting malformed input is the correct behavior
		}
		// Whatever parses, the gate in front of the row decoders admits
		// exactly the clean, built catalogs of an encoded store (version 4
		// on), and refuses a clean built one of an older version with the one
		// typed error.
		built := !cat.Dirty && cat.BytesPer != nil
		_, _, _, gateErr := loadServableCatalog(path)
		if (gateErr == nil) != (built && cat.Version >= minServableVersion) || errors.Is(gateErr, errOldStore) != (built && cat.Version < minServableVersion) {
			t.Fatalf("loadServableCatalog on a version %d catalog (dirty=%v, built=%v): %v", cat.Version, cat.Dirty, cat.BytesPer != nil, gateErr)
		}
		if err := writeCatalog(path, cat); err != nil {
			t.Fatalf("rewriting a valid catalog: %v", err)
		}
		first, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		cat2, _, _, err := loadCatalog(path)
		if err != nil {
			t.Fatalf("reloading a rewritten catalog: %v", err)
		}
		if err := writeCatalog(path, cat2); err != nil {
			t.Fatalf("second rewrite: %v", err)
		}
		second, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("catalog round trip is not a fixpoint:\nfirst:  %s\nsecond: %s", first, second)
		}
	})
}
