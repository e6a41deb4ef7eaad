package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"repro/internal/ingest"
)

// fillDisk points every descriptor this process holds on path at /dev/full,
// so the next write through it fails with ENOSPC as on a disk with no room.
func fillDisk(t *testing.T, path string) {
	t.Helper()
	full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Skipf("no /dev/full: %v", err)
	}
	defer full.Close()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot list open descriptors: %v", err)
	}
	hit := 0
	for _, e := range fds {
		dst, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name()))
		if err != nil || dst != path {
			continue
		}
		var fd int
		for _, c := range e.Name() {
			fd = fd*10 + int(c-'0')
		}
		if err := syscall.Dup3(int(full.Fd()), fd, 0); err != nil {
			t.Fatal(err)
		}
		hit++
	}
	if hit == 0 {
		t.Fatalf("no open descriptor on %s", path)
	}
}

// TestIngestRefusalDegradesHealth: once a delta-log write fails, the log
// refuses every later write until restart; /ingest answers 503, and /healthz
// and the health gauge report the instance degraded, naming the cause in the
// ingest block, so a load balancer stops routing writes to it.
func TestIngestRefusalDegradesHealth(t *testing.T) {
	srv, _, storePath, _ := buildIngestServed(t, testDeltaOptions(), testIngestConfig())
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	type health struct {
		Status string `json:"status"`
		Ingest struct {
			RefusingWrites string `json:"refusingWrites"`
		} `json:"ingest"`
	}
	var before health
	getJSON(t, ts, "/healthz", http.StatusOK, &before)
	if before.Status != "ok" || before.Ingest.RefusingWrites != "" {
		t.Fatalf("healthz before the failure = %+v, want ok", before)
	}

	fillDisk(t, ingest.DeltaPath(storePath))
	postJSON(t, ts, "/ingest",
		ingestRequest{Cells: []ingestCellReq{{Coords: []int{1, 2}, Rows: []string{"99.0"}}}},
		http.StatusServiceUnavailable, nil)

	var after health
	getJSON(t, ts, "/healthz", http.StatusOK, &after)
	if after.Status != "degraded" || !strings.Contains(after.Ingest.RefusingWrites, ingest.ErrLogPoisoned.Error()) ||
		!strings.Contains(after.Ingest.RefusingWrites, syscall.ENOSPC.Error()) {
		t.Errorf("healthz after a failed delta write = %+v, want degraded, refusing writes for want of space", after)
	}
	samples, _ := scrape(t, ts.URL)
	if samples[`snakestore_health_state{state="degraded"}`] != 1 || samples[`snakestore_health_state{state="ok"}`] != 0 {
		t.Errorf("health gauge ok=%v degraded=%v, want degraded", samples[`snakestore_health_state{state="ok"}`], samples[`snakestore_health_state{state="degraded"}`])
	}
}
