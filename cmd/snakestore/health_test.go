package main

import (
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/rowcodec"
)

// flipPageByte flips one bit of the data region of page page on disk.
func flipPageByte(t *testing.T, storePath string, pageBytes int, page int64) {
	t.Helper()
	f, err := os.OpenFile(storePath, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	off := page*int64(pageBytes) + 3
	one := make([]byte, 1)
	if _, err := f.ReadAt(one, off); err != nil {
		t.Fatal(err)
	}
	one[0] ^= 0x20
	if _, err := f.WriteAt(one, off); err != nil {
		t.Fatal(err)
	}
}

// TestServeScrubRetriesUnrepairableOnce: two damaged pages of one parity
// group cannot be rebuilt from it. The paced scrubber finds them, counts
// and logs each failure once, and then leaves them alone — it does not
// re-read their parity group batch after batch — while /healthz stays
// degraded. POST /repair retries them and does not count them again.
func TestServeScrubRetriesUnrepairableOnce(t *testing.T) {
	srv, storePath, pageBytes, _ := buildChaosServed(t)
	var buf syncBuf
	srv.log = slog.New(slog.NewTextHandler(&buf, nil))
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	if g := srv.st().ParityGroup(); g != 2 || srv.st().Layout().TotalPages() < 2 {
		t.Fatalf("parity group %d over %d pages, want pages 0 and 1 in one group", g, srv.st().Layout().TotalPages())
	}
	flipPageByte(t, storePath, pageBytes, 0)
	flipPageByte(t, storePath, pageBytes, 1)

	before := srv.metrics.repairFailures.Value()
	srv.maint = newMaintainer(int64(pageBytes)) // one page of scrub a tick
	for batch := 0; batch < 24; batch++ {
		srv.maintainTick(context.Background())
	}
	if got := srv.metrics.repairFailures.Value() - before; got != 2 {
		t.Errorf("repair failures counted %d times over 24 batches, want 2 (one per page)", got)
	}
	warns := map[string]int{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.Contains(line, "level=WARN") && strings.Contains(line, "msg=repair") {
			for _, page := range []string{"page=0 ", "page=1 "} {
				if strings.Contains(line, page) {
					warns[page]++
				}
			}
		}
	}
	if warns["page=0 "] != 1 || warns["page=1 "] != 1 || strings.Count(buf.String(), "level=WARN") != 2 {
		t.Errorf("WARN lines per page %v, want one each:\n%s", warns, buf.String())
	}
	var h struct {
		Status           string  `json:"status"`
		QuarantinedPages []int64 `json:"quarantinedPages"`
	}
	getJSON(t, ts, "/healthz", http.StatusOK, &h)
	if h.Status != "degraded" || len(h.QuarantinedPages) != 2 {
		t.Errorf("healthz = %+v, want degraded with pages 0 and 1", h)
	}

	if rr := postRepair(t, ts.URL); rr.OK || len(rr.Failed) == 0 {
		t.Errorf("POST /repair = %+v, want the unrepairable pages reported", rr)
	}
	if got := srv.metrics.repairFailures.Value() - before; got != 2 {
		t.Errorf("after POST /repair the failures count %d, want still 2", got)
	}
}

// TestRepairLogOneMsgKey: behind a JSON handler, every line POST /repair
// logs — the repair of a page included — carries exactly one "msg" key.
func TestRepairLogOneMsgKey(t *testing.T) {
	srv, storePath, pageBytes, _ := buildChaosServed(t)
	var buf syncBuf
	srv.log = slog.New(slog.NewJSONHandler(&buf, nil))
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	last := srv.st().Layout().TotalPages() - 1
	flipPageByte(t, storePath, pageBytes, last)
	if rr := postRepair(t, ts.URL); !rr.OK || len(rr.Repaired) != 1 || rr.Repaired[0] != last {
		t.Fatalf("POST /repair = %+v, want page %d repaired", rr, last)
	}
	lines := 0
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		dec := json.NewDecoder(strings.NewReader(line))
		if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
			t.Fatalf("line %q does not open a JSON object: %v", line, err)
		}
		msgs := 0
		for dec.More() {
			key, err := dec.Token()
			if err != nil {
				t.Fatal(err)
			}
			if key == "msg" {
				msgs++
			}
			var v json.RawMessage
			if err := dec.Decode(&v); err != nil {
				t.Fatal(err)
			}
		}
		if msgs != 1 {
			t.Errorf("%d msg keys in %s", msgs, line)
		}
		lines++
	}
	if !strings.Contains(buf.String(), `"how":"reconstructed from parity"`) {
		t.Errorf("no repair line among the %d logged:\n%s", lines, buf.String())
	}
}

// TestCompactionOversizeWarnsOnce: a pending cell larger than its extent
// stays in the delta log tick after tick; the compactor says so once, with
// a WARN when it appears, and once more, with an INFO, when a rewrite that
// fits replaces it.
func TestCompactionOversizeWarnsOnce(t *testing.T) {
	srv, _, _, _ := buildIngestServed(t, testDeltaOptions(), testIngestConfig())
	var buf syncBuf
	srv.log = slog.New(slog.NewTextHandler(&buf, nil))
	cell := srv.st().Layout().Order().CellIndex([]int{1, 2})
	put := func(framed []byte) {
		t.Helper()
		srv.ing.mu.Lock()
		defer srv.ing.mu.Unlock()
		if err := srv.ing.log.Put(cell, framed); err != nil {
			t.Fatal(err)
		}
	}
	put(rowcodec.FrameRecords([]byte(strings.Repeat("a row much longer than the extent build sized ", 4))))
	srv.maint = newMaintainer(maintainBudget)
	for tick := 0; tick < 6; tick++ {
		srv.maintainTick(context.Background())
	}
	if n := strings.Count(buf.String(), "level=WARN"); n != 1 || !srv.maint.oversize {
		t.Errorf("%d WARN lines over 6 ticks with a cell pending oversize, want 1:\n%s", n, buf.String())
	}
	put(rowcodec.EncodeCell(srv.dict, []string{"12.0"}))
	srv.maintainTick(context.Background())
	srv.maintainTick(context.Background())
	if n := strings.Count(buf.String(), "no pending cell exceeds its extent"); n != 1 || srv.maint.oversize || strings.Count(buf.String(), "level=WARN") != 1 {
		t.Errorf("after a fitting rewrite: %d all-clear lines, want 1:\n%s", n, buf.String())
	}
}
