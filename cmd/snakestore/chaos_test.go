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
	"sync"
	"testing"
	"time"

	snakes "repro"
	"repro/internal/chaos"
)

// chaosRegion is the canonical query whose answer is the ground truth for
// every convergence check: region [1,2)×[2,6), 4 records.
const chaosRegion = "/query?where=x%3D1..2&where=y%3D2..6&sum=0"

// buildChaosServed builds a store with a small parity group (many groups →
// many injectable faults per round), attaches the sidecar, and returns the
// server plus everything a chaos schedule needs.
func buildChaosServed(t *testing.T) (srv *server, storePath string, pageBytes int, want float64) {
	t.Helper()
	dir := t.TempDir()
	cat := filepath.Join(dir, "cat.json")
	storePath = filepath.Join(dir, "facts.db")
	csvPath := filepath.Join(dir, "facts.csv")
	want = writeFactsCSV(t, csvPath)
	if err := cmdOptimize([]string{"-dims", "x:2,2 y:3,2", "-page", "64", "-catalog", cat}); err != nil {
		t.Fatal(err)
	}
	if err := cmdBuild([]string{
		"-catalog", cat, "-csv", csvPath, "-store", storePath, "-frames", "8", "-parity-group", "2",
	}); err != nil {
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
	if err := store.AttachParity(snakes.ParityPath(storePath)); err != nil {
		t.Fatal(err)
	}
	adm, err := snakes.NewAdmission(64, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	srv = newServer(store, schema, c, adm, 5*time.Second, snakes.TraceConfig{})
	srv.parityGroup = store.ParityGroup()
	return srv, storePath, c.PageBytes, want
}

// assertChaosTruth queries the canonical region and compares the stable
// fields (records, sum) against ground truth.
func assertChaosTruth(t *testing.T, ts *httptest.Server, want float64) {
	t.Helper()
	var q queryResponse
	getJSON(t, ts, chaosRegion, http.StatusOK, &q)
	if q.Records != 4 {
		t.Errorf("post-chaos records = %d, want 4", q.Records)
	}
	if q.Sum == nil || math.Abs(*q.Sum-want) > 1e-9 {
		t.Errorf("post-chaos sum = %v, want %v", q.Sum, want)
	}
}

type repairResponse struct {
	Pages    int64    `json:"pages"`
	Repaired []int64  `json:"repaired"`
	Failed   []string `json:"failed"`
	OK       bool     `json:"ok"`
	Health   string   `json:"health"`
}

func postRepair(t *testing.T, url string) repairResponse {
	t.Helper()
	resp, err := http.Post(url+"/repair", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /repair = %d, want 200", resp.StatusCode)
	}
	var rr repairResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	return rr
}

// chaosRound applies one seeded repairable schedule to the store file and
// returns the schedule plus how many of its events actually corrupted a
// page (a torn write on an already-zero tail is a physical no-op).
func chaosRound(t *testing.T, srv *server, storePath string, pageBytes int, seed int64) (*chaos.Schedule, int) {
	t.Helper()
	st := srv.st()
	total := st.Layout().TotalPages()
	sched := chaos.PlanRepairable(seed, int(total), total, st.ParityGroup(), pageBytes)
	if err := sched.Apply(storePath); err != nil {
		t.Fatal(err)
	}
	hurt := 0
	for _, e := range sched.Events {
		if pageDamaged(st, e.Page) {
			hurt++
		}
	}
	return sched, hurt
}

// pageDamaged reports whether a one-page scrub window finds page p damaged:
// a window's page problems come first, in page order, so a damaged first
// page is its first problem.
func pageDamaged(st *snakes.FileStore, p int64) bool {
	rep, err := st.ScrubRange(context.Background(), snakes.ScrubCursor{Page: p}, p+1, false)
	return err != nil || len(rep.Problems) > 0 && rep.Problems[0].Page == p
}

// TestChaosRepairConvergence is the deterministic core of `make chaos`:
// for each seed, a repairable fault schedule lands on disk under the live
// handler, one POST /repair sweep heals every damaged page, /healthz
// returns to ok with an empty quarantine, /verify scrubs clean, and the
// canonical query answers exactly as before the faults.
func TestChaosRepairConvergence(t *testing.T) {
	srv, storePath, pageBytes, want := buildChaosServed(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	assertChaosTruth(t, ts, want)

	for seed := int64(1); seed <= 4; seed++ {
		sched, hurt := chaosRound(t, srv, storePath, pageBytes, seed)
		if hurt == 0 {
			t.Fatalf("seed %d: schedule %v corrupted nothing", seed, sched)
		}
		rr := postRepair(t, ts.URL)
		if !rr.OK || len(rr.Failed) != 0 {
			t.Fatalf("seed %d: repair sweep = %+v, want clean", seed, rr)
		}
		if len(rr.Repaired) != hurt {
			t.Errorf("seed %d: repaired %d pages, want %d", seed, len(rr.Repaired), hurt)
		}
		var h struct {
			Status           string  `json:"status"`
			QuarantinedPages []int64 `json:"quarantinedPages"`
		}
		getJSON(t, ts, "/healthz", http.StatusOK, &h)
		if h.Status != "ok" || len(h.QuarantinedPages) != 0 {
			t.Fatalf("seed %d: healthz after repair = %+v, want ok/empty", seed, h)
		}
		var v struct {
			OK bool `json:"ok"`
		}
		getJSON(t, ts, "/verify", http.StatusOK, &v)
		if !v.OK {
			t.Fatalf("seed %d: store not clean after repair", seed)
		}
		assertChaosTruth(t, ts, want)
	}
}

// TestChaosLiveScrubConvergence drives the full live loop: a real serve
// with the paced scrubber running, concurrent clients hammering the
// canonical query, and seeded corruption landing mid-flight. Every client
// response must be a success or a typed failure status (500/503/504 —
// never a hang or an unexplained code), a 200 must carry the exact
// ground-truth answer, and after each burst the scrubber must converge
// /healthz back to ok with an empty quarantine, unprompted.
func TestChaosLiveScrubConvergence(t *testing.T) {
	srv, storePath, pageBytes, want := buildChaosServed(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serve(ctx, ln, srv, 5*time.Second) }()
	srv.startMaintainer(ctx, 100*time.Millisecond, 0) // 1 MiB a tick: the whole store
	base := fmt.Sprintf("http://%s", ln.Addr())

	stop := make(chan struct{})
	var wg sync.WaitGroup
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
				resp, err := http.Get(base + chaosRegion)
				if err != nil {
					select {
					case bad <- err.Error():
					default:
					}
					return
				}
				var q queryResponse
				decodeErr := json.NewDecoder(resp.Body).Decode(&q)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					if decodeErr != nil || q.Records != 4 || q.Sum == nil || math.Abs(*q.Sum-want) > 1e-9 {
						select {
						case bad <- fmt.Sprintf("200 with wrong answer: %+v (decode %v)", q, decodeErr):
						default:
						}
						return
					}
				case http.StatusInternalServerError, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
					// Damage or shedding surfaced as a typed failure: fine.
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

	for seed := int64(10); seed <= 12; seed++ {
		chaosRound(t, srv, storePath, pageBytes, seed)
		deadline := time.Now().Add(15 * time.Second)
		for {
			resp, err := http.Get(base + "/healthz")
			if err != nil {
				t.Fatal(err)
			}
			var h struct {
				Status           string  `json:"status"`
				QuarantinedPages []int64 `json:"quarantinedPages"`
			}
			decodeErr := json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if decodeErr != nil {
				t.Fatal(decodeErr)
			}
			// Converged only when the store actually scrubs clean — health
			// alone can read ok before the scrubber's cursor finds the burst.
			if h.Status == "ok" && len(h.QuarantinedPages) == 0 {
				if rep, err := srv.st().Verify(); err == nil && rep.OK() {
					break
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("seed %d: scrubber did not converge; healthz = %+v", seed, h)
			}
			time.Sleep(25 * time.Millisecond)
		}
	}

	close(stop)
	wg.Wait()
	select {
	case msg := <-bad:
		t.Fatalf("client saw a non-typed failure during chaos: %s", msg)
	default:
	}

	// Final ground truth through the live listener, then a clean drain.
	resp, err := http.Get(base + chaosRegion)
	if err != nil {
		t.Fatal(err)
	}
	var q queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&q); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || q.Records != 4 || q.Sum == nil || math.Abs(*q.Sum-want) > 1e-9 {
		t.Fatalf("post-chaos answer = %d %+v, want 200 with records 4 sum %v", resp.StatusCode, q, want)
	}
	// Drop pooled keep-alive connections (including any the transport
	// dialed but never used) so Shutdown is not left waiting on them.
	http.DefaultClient.CloseIdleConnections()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v after drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not drain in time")
	}
}

// TestChaosReorgUnderFaults corrupts the source generation (repairably)
// and then forces a migration: the copy must repair-and-retry instead of
// stranding, the swap must land on generation 1 with a parity sidecar
// attached and the quarantine cleared, and answers must match ground
// truth on the new generation.
func TestChaosReorgUnderFaults(t *testing.T) {
	srv, _, storePath, _ := buildAdaptiveServed(t, adaptiveConfig())
	defer srv.closeStore()
	if err := srv.st().AttachParity(snakes.ParityPath(storePath)); err != nil {
		t.Fatal(err)
	}
	srv.parityGroup = srv.st().ParityGroup()
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	// Ground truth before any damage, and a workload shift so the policy
	// has a better layout to migrate to.
	var q0 queryResponse
	getJSON(t, ts, chaosRegion, http.StatusOK, &q0)
	for i := 0; i < 50; i++ {
		getJSON(t, ts, "/query?where=y%3D3..4", http.StatusOK, nil)
	}

	// Seeded repairable damage on the source generation, verified to bite.
	st := srv.st()
	total := st.Layout().TotalPages()
	sched := chaos.PlanRepairable(77, int(total), total, st.ParityGroup(), 32)
	if err := sched.Apply(storePath); err != nil {
		t.Fatal(err)
	}
	hurt := 0
	for _, e := range sched.Events {
		if pageDamaged(st, e.Page) {
			hurt++
			srv.noteCorrupt(&snakes.CorruptPageError{Page: e.Page, Reason: "chaos"})
		}
	}
	if hurt == 0 {
		t.Fatalf("schedule %v corrupted nothing", sched)
	}

	if st := forceReorg(t, srv, ts); st.LastOutcome != "success" {
		t.Fatalf("forced reorg over a corrupt (repairable) source: %+v", st)
	} else if st.Generation != 1 {
		t.Fatalf("post-reorg generation = %d, want 1", st.Generation)
	}

	// The swap cleared the quarantine (stale generation-0 page ids) and the
	// new generation carries its own parity sidecar, ready to self-heal.
	var h struct {
		Status           string  `json:"status"`
		QuarantinedPages []int64 `json:"quarantinedPages"`
	}
	getJSON(t, ts, "/healthz", http.StatusOK, &h)
	if h.Status != "ok" || len(h.QuarantinedPages) != 0 {
		t.Errorf("healthz after swap = %+v, want ok with empty quarantine", h)
	}
	if !srv.st().HasParity() {
		t.Error("new generation has no parity attached after the swap")
	}
	if _, err := os.Stat(snakes.ParityPath(genPath(storePath, 1))); err != nil {
		t.Errorf("new generation parity sidecar missing on disk: %v", err)
	}

	var q1 queryResponse
	getJSON(t, ts, chaosRegion, http.StatusOK, &q1)
	if q1.Generation != 1 || q1.Records != q0.Records || q1.Sum == nil || q0.Sum == nil ||
		math.Abs(*q1.Sum-*q0.Sum) > 1e-9 {
		t.Errorf("post-reorg answer = %+v, want generation 1 matching %+v", q1, q0)
	}
	var v struct {
		OK bool `json:"ok"`
	}
	getJSON(t, ts, "/verify", http.StatusOK, &v)
	if !v.OK {
		t.Error("new generation does not scrub clean")
	}
}

// TestChaosLong is the randomized long-haul variant behind `make
// chaos-long`: fresh random seeds every run, each logged so a failure
// replays exactly. Gated on CHAOS_LONG=1 to keep `make check` fast.
func TestChaosLong(t *testing.T) {
	if os.Getenv("CHAOS_LONG") != "1" {
		t.Skip("set CHAOS_LONG=1 to run the randomized long chaos suite")
	}
	srv, storePath, pageBytes, want := buildChaosServed(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	base := time.Now().UnixNano()
	t.Logf("chaos-long base seed %d (replay: corrupt with chaos.PlanRepairable(seed, ...))", base)
	for round := int64(0); round < 32; round++ {
		seed := base + round
		t.Logf("round %d seed %d", round, seed)
		sched, hurt := chaosRound(t, srv, storePath, pageBytes, seed)
		rr := postRepair(t, ts.URL)
		if !rr.OK || len(rr.Repaired) != hurt {
			t.Fatalf("seed %d: schedule %v → repair %+v, want %d pages healed", seed, sched, rr, hurt)
		}
		assertChaosTruth(t, ts, want)
	}
	var v struct {
		OK bool `json:"ok"`
	}
	getJSON(t, ts, "/verify", http.StatusOK, &v)
	if !v.OK {
		t.Fatal("store not clean after the long chaos run")
	}
}
