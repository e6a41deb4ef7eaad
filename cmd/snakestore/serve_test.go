package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	snakes "repro"
	"repro/internal/storage"
	"repro/internal/trace"
)

// buildServed builds a small store via the real optimize/build pipeline and
// returns a server over it plus the expected sum for region [1,2)×[2,6).
func buildServed(t *testing.T, capacity int64, queueTimeout, reqTimeout time.Duration) (*server, float64) {
	t.Helper()
	dir := t.TempDir()
	cat := filepath.Join(dir, "cat.json")
	storePath := filepath.Join(dir, "facts.db")
	csvPath := filepath.Join(dir, "facts.csv")
	want := writeFactsCSV(t, csvPath)
	if err := cmdOptimize([]string{"-dims", "x:2,2 y:3,2", "-page", "32", "-catalog", cat}); err != nil {
		t.Fatal(err)
	}
	if err := cmdBuild([]string{"-catalog", cat, "-csv", csvPath, "-store", storePath, "-frames", "8"}); err != nil {
		t.Fatal(err)
	}
	c, schema, strat, err := loadCatalog(cat)
	if err != nil {
		t.Fatal(err)
	}
	store, err := strat.OpenFileStore(storePath, c.BytesPer, c.PageBytes, 8, c.LoadedBytes)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	adm, err := storage.NewAdmission(capacity, queueTimeout)
	if err != nil {
		t.Fatal(err)
	}
	return newServer(store, schema, c, adm, reqTimeout, trace.Config{}), want
}

func getJSON(t *testing.T, ts *httptest.Server, path string, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s = %d, want %d", path, resp.StatusCode, wantStatus)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decoding body: %v", path, err)
		}
	}
}

func TestServeQueryAndHealthz(t *testing.T) {
	srv, want := buildServed(t, 64, time.Second, 5*time.Second)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	var q queryResponse
	getJSON(t, ts, "/query?where=x%3D1..2&where=y%3D2..6&sum=0", http.StatusOK, &q)
	if q.Records != 4 {
		t.Errorf("records = %d, want 4", q.Records)
	}
	if q.Sum == nil || math.Abs(*q.Sum-want) > 1e-9 {
		t.Errorf("sum = %v, want %v", q.Sum, want)
	}
	if q.Pages <= 0 {
		t.Errorf("analyticPages = %d, want positive", q.Pages)
	}

	// Bad inputs are 400s, not 500s.
	getJSON(t, ts, "/query?where=zz%3D0..1", http.StatusBadRequest, nil)
	getJSON(t, ts, "/query?where=x%3D9..1", http.StatusBadRequest, nil)
	getJSON(t, ts, "/query?sum=notanumber", http.StatusBadRequest, nil)

	var v struct {
		OK      bool  `json:"ok"`
		Pages   int64 `json:"pages"`
		Records int64 `json:"records"`
	}
	getJSON(t, ts, "/verify", http.StatusOK, &v)
	if !v.OK || v.Pages == 0 || v.Records == 0 {
		t.Errorf("verify = %+v, want clean non-empty scrub", v)
	}

	var h struct {
		Status           string  `json:"status"`
		QuarantinedPages []int64 `json:"quarantinedPages"`
		LastScrub        string  `json:"lastScrub"`
		Admission        struct {
			Admitted int64 `json:"Admitted"`
		} `json:"admission"`
	}
	getJSON(t, ts, "/healthz", http.StatusOK, &h)
	if h.Status != "ok" || len(h.QuarantinedPages) != 0 {
		t.Errorf("healthz = %+v, want ok with empty quarantine", h)
	}
	if h.LastScrub == "" {
		t.Error("healthz lost the last scrub outcome")
	}
	if h.Admission.Admitted == 0 {
		t.Error("healthz admission stats missing admitted count")
	}
}

// TestServeParallelReadPath: a cold whole-grid query on the 8-frame pool
// reads its multi-page seek runs in 4-page span windows, and still reads
// exactly the
// pages and seeks the analytic model predicts, sums exactly, and counts
// every seek run in the fragment histogram.
func TestServeParallelReadPath(t *testing.T) {
	srv, _ := buildServed(t, 64, time.Second, 5*time.Second)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	var q queryResponse
	getJSON(t, ts, "/query?sum=0", http.StatusOK, &q)
	if q.Records != 24 || q.Sum == nil || *q.Sum != 420 { // Σ 10x+y over the 4×6 grid
		t.Errorf("records = %d, sum = %v; want 24, 420", q.Records, fmtSum(q.Sum))
	}
	pred := srv.st().Layout().Query(snakes.Region{{Lo: 0, Hi: 4}, {Lo: 0, Hi: 6}})
	if pred.Pages <= pred.Seeks {
		t.Fatalf("the grid plans %d pages in %d seek runs: no run for a window to span", pred.Pages, pred.Seeks)
	}
	if q.Pages != pred.Pages || q.PagesRead != pred.Pages || q.Seeks != pred.Seeks {
		t.Errorf("cold query: analytic %d pages, read %d pages %d seeks; Layout.Query %d pages %d seeks",
			q.Pages, q.PagesRead, q.Seeks, pred.Pages, pred.Seeks)
	}

	samples, _ := scrape(t, ts.URL)
	if got := samples["snakestore_fragment_seconds_count"]; got != float64(pred.Seeks) {
		t.Errorf("snakestore_fragment_seconds_count = %v, want one per seek run (%d)", got, pred.Seeks)
	}
}

func TestServeQuarantinesCorruptPage(t *testing.T) {
	dir := t.TempDir()
	cat := filepath.Join(dir, "cat.json")
	storePath := filepath.Join(dir, "facts.db")
	csvPath := filepath.Join(dir, "facts.csv")
	writeFactsCSV(t, csvPath)
	if err := cmdOptimize([]string{"-dims", "x:2,2 y:3,2", "-page", "64", "-catalog", cat}); err != nil {
		t.Fatal(err)
	}
	if err := cmdBuild([]string{"-catalog", cat, "-csv", csvPath, "-store", storePath, "-frames", "8"}); err != nil {
		t.Fatal(err)
	}
	// Flip a bit on disk before the server opens the store.
	f, err := os.OpenFile(storePath, os.O_RDWR, 0)
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

	c, schema, strat, err := loadCatalog(cat)
	if err != nil {
		t.Fatal(err)
	}
	store, err := strat.OpenFileStore(storePath, c.BytesPer, c.PageBytes, 8, c.LoadedBytes)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	adm, err := storage.NewAdmission(64, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(store, schema, c, adm, 5*time.Second, trace.Config{})
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	// The full-grid query trips over the damage: 500, not a crash.
	getJSON(t, ts, "/query", http.StatusInternalServerError, nil)

	// The daemon keeps serving and reports the quarantined page.
	var h struct {
		Status           string  `json:"status"`
		QuarantinedPages []int64 `json:"quarantinedPages"`
	}
	getJSON(t, ts, "/healthz", http.StatusOK, &h)
	if h.Status != "degraded" || len(h.QuarantinedPages) == 0 {
		t.Errorf("healthz after corruption = %+v, want degraded with quarantined pages", h)
	}
}

func TestServeShedsLoadWith503(t *testing.T) {
	srv, _ := buildServed(t, 1, time.Millisecond, 5*time.Second)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	// Occupy the whole admission budget, then watch a query shed.
	if err := srv.adm.Acquire(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	getJSON(t, ts, "/query", http.StatusServiceUnavailable, nil)
	srv.adm.Release(1)
	getJSON(t, ts, "/query", http.StatusOK, nil)
}

func TestServeGracefulDrain(t *testing.T) {
	srv, want := buildServed(t, 64, time.Second, 5*time.Second)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serve(ctx, ln, srv, 5*time.Second) }()
	base := fmt.Sprintf("http://%s", ln.Addr())

	// Requests succeed while the daemon runs.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(base + "/query?where=x%3D1..2&where=y%3D2..6&sum=0")
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var q queryResponse
			if err := json.NewDecoder(resp.Body).Decode(&q); err != nil {
				t.Error(err)
				return
			}
			if q.Sum == nil || math.Abs(*q.Sum-want) > 1e-9 {
				t.Errorf("sum = %v, want %v", q.Sum, want)
			}
		}()
	}
	wg.Wait()

	// Trigger the drain; serve must return cleanly and close the store. The
	// client's transport may hold connections it dialed speculatively and
	// never sent a request on; the server cannot tell those from a request
	// about to arrive and Shutdown waits 5 s for them, so close them first.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v after drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not drain in time")
	}
	if err := srv.st().Close(); err == nil {
		t.Error("store was not closed by the drain")
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("listener still accepting after drain")
	}
}

// TestQueryRejectsUnknownParams: /query reads where and one sum and
// nothing else. An unknown parameter, a repeated or empty sum and an empty
// where answer 400 with the parameter named, before any page is read;
// where repeated once per dimension is a query.
func TestQueryRejectsUnknownParams(t *testing.T) {
	srv, _ := buildServed(t, 64, time.Second, 5*time.Second)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	for _, c := range []struct {
		query, status, want string
	}{
		{"bogus=1&sum=1", "400", `unknown parameter "bogus"`},
		{"sum=0&zz=1&aa=2", "400", `unknown parameter "aa"`},
		{"where=x%3D1..2&Sum=0", "400", `unknown parameter "Sum"`},
		{"=1", "400", `unknown parameter ""`},
		{"sum=0&sum=0", "400", "sum given 2 times"},
		{"sum=", "400", `sum="": want a non-negative column index`},
		{"where=", "400", "usage error"},
		{"where=x%3D1..2&where=y%3D2..6&sum=0", "200", ""},
		{"", "200", ""},
	} {
		resp, err := http.Get(ts.URL + "/query?" + c.query)
		if err != nil {
			t.Fatal(err)
		}
		var body struct{ Error string }
		json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if strconv.Itoa(resp.StatusCode) != c.status || !strings.Contains(body.Error, c.want) {
			t.Errorf("/query?%s = %d %q, want %s with %q", c.query, resp.StatusCode, body.Error, c.status, c.want)
		}
	}
	if pages := srv.st().Pool().Stats().Misses; pages != srv.st().Layout().TotalPages() {
		t.Errorf("the refused queries read pages: %d misses over a store of %d pages", pages, srv.st().Layout().TotalPages())
	}
}
