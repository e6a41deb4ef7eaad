package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	snakes "repro"
)

// parseMetrics parses a Prometheus text exposition into per-series samples
// (keyed `name{labels}`) and per-family types. Duplicate series are an
// error: each (name, labels) pair must render exactly once per scrape.
func parseMetrics(body string) (samples map[string]float64, types map[string]string, err error) {
	samples = make(map[string]float64)
	types = make(map[string]string)
	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if f, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, ok := strings.Cut(f, " ")
			if !ok {
				return nil, nil, fmt.Errorf("malformed TYPE line %q", line)
			}
			if _, dup := types[name]; dup {
				return nil, nil, fmt.Errorf("family %s declared twice", name)
			}
			types[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, nil, fmt.Errorf("malformed sample line %q", line)
		}
		key := line[:i]
		v, perr := strconv.ParseFloat(line[i+1:], 64)
		if perr != nil {
			return nil, nil, fmt.Errorf("sample %q: %v", line, perr)
		}
		if _, dup := samples[key]; dup {
			return nil, nil, fmt.Errorf("duplicate series %s", key)
		}
		samples[key] = v
	}
	return samples, types, nil
}

// scrape fetches and parses /metrics, failing the test on any malformation.
func scrape(t *testing.T, base string) (map[string]float64, map[string]string) {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("metrics content type = %q, want text format 0.0.4", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples, types, err := parseMetrics(string(body))
	if err != nil {
		t.Fatalf("parsing /metrics: %v", err)
	}
	return samples, types
}

func TestMetricsEndpoint(t *testing.T) {
	srv, _ := buildServed(t, 64, time.Second, 5*time.Second)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	getJSON(t, ts, "/query?where=x%3D1..2&where=y%3D2..6&sum=0", http.StatusOK, nil)
	getJSON(t, ts, "/query?where=zz%3D0..1", http.StatusBadRequest, nil)

	samples, types := scrape(t, ts.URL)
	for key, want := range map[string]float64{
		`snakestore_http_requests_total{handler="query"}`:             2,
		`snakestore_http_responses_total{code="200",handler="query"}`: 1,
		`snakestore_http_responses_total{code="400",handler="query"}`: 1,
		`snakestore_query_pages_analytic_count`:                       1,
	} {
		if got, ok := samples[key]; !ok || got != want {
			t.Errorf("%s = %v (present=%v), want %v", key, got, ok, want)
		}
	}
	// The store was opened cold, so the successful query did physical reads
	// the pool and tally both saw.
	for _, key := range []string{
		"snakestore_pool_misses_total",
		"snakestore_admission_admitted_total",
		"snakestore_query_pages_read_sum",
		"snakestore_query_seeks_observed_sum",
		`snakestore_http_request_seconds_count{handler="query"}`,
	} {
		if samples[key] <= 0 {
			t.Errorf("%s = %v, want positive", key, samples[key])
		}
	}
	// Cumulative histogram: the +Inf bucket is the count.
	inf := samples[`snakestore_http_request_seconds_bucket{handler="query",le="+Inf"}`]
	cnt := samples[`snakestore_http_request_seconds_count{handler="query"}`]
	if inf != cnt {
		t.Errorf("+Inf bucket %v != _count %v", inf, cnt)
	}
	for name, typ := range map[string]string{
		"snakestore_pool_hits_total":       "counter",
		"snakestore_admission_queue_depth": "gauge",
		"snakestore_http_request_seconds":  "histogram",
		"snakestore_draining":              "gauge",
		"snakestore_quarantined_pages":     "gauge",
		"snakestore_scrub_pages_total":     "counter",
		"snakestore_pages_repaired_total":  "counter",
		"snakestore_repair_failures_total": "counter",
		"snakestore_health_state":          "gauge",
	} {
		if types[name] != typ {
			t.Errorf("type of %s = %q, want %q", name, types[name], typ)
		}
	}
	// The health state machine renders exactly one active state.
	active := 0.0
	for _, st := range healthStates {
		active += samples[fmt.Sprintf("snakestore_health_state{state=%q}", st)]
	}
	if active != 1 {
		t.Errorf("health_state gauges sum to %v, want exactly 1 active state", active)
	}
	if samples[`snakestore_health_state{state="ok"}`] != 1 {
		t.Errorf("fresh store health state is not ok: %v", samples)
	}
}

// TestHealthzDraining: the moment graceful shutdown begins, /healthz must
// flip to 503 "draining" — a load balancer probing it has to pull the
// instance — while /metrics and in-flight queries keep working.
func TestHealthzDraining(t *testing.T) {
	srv, _ := buildServed(t, 64, time.Second, 5*time.Second)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	getJSON(t, ts, "/healthz", http.StatusOK, nil)
	srv.beginDrain()

	var h struct {
		Status string `json:"status"`
	}
	getJSON(t, ts, "/healthz", http.StatusServiceUnavailable, &h)
	if h.Status != "draining" {
		t.Errorf("draining healthz status = %q, want \"draining\"", h.Status)
	}
	getJSON(t, ts, "/query?where=x%3D1..2&where=y%3D2..6", http.StatusOK, nil)
	samples, _ := scrape(t, ts.URL)
	if samples["snakestore_draining"] != 1 {
		t.Errorf("snakestore_draining = %v during drain, want 1", samples["snakestore_draining"])
	}
}

// TestMetricsLint enforces the naming conventions on the real serving
// registry: unique series, snake_case names, the snakestore_ prefix, and
// counter/_total agreement. `make metrics-lint` runs this.
func TestMetricsLint(t *testing.T) {
	srv, _ := buildServed(t, 64, time.Second, 5*time.Second)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	getJSON(t, ts, "/query", http.StatusOK, nil)

	// parseMetrics inside scrape already rejects duplicate series and
	// duplicate family declarations.
	samples, types := scrape(t, ts.URL)
	nameRE := regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
	for name, typ := range types {
		if !nameRE.MatchString(name) || strings.Contains(name, "__") {
			t.Errorf("metric %q is not snake_case", name)
		}
		if !strings.HasPrefix(name, "snakestore_") {
			t.Errorf("metric %q lacks the snakestore_ prefix", name)
		}
		if typ == "counter" != strings.HasSuffix(name, "_total") {
			t.Errorf("metric %q: type %s and _total suffix disagree", name, typ)
		}
	}
	// Every sample belongs to a declared family (histograms via suffixes).
	for key := range samples {
		name := key
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if s, ok := strings.CutSuffix(name, suf); ok && types[s] == "histogram" {
				base = s
			}
		}
		if _, ok := types[base]; !ok {
			t.Errorf("series %s has no # TYPE declaration", key)
		}
	}
	// Resident bytes by owner: a gauge over the closed owner set, the
	// per-cell owners exact (16 B a directory entry plus the end entry, 8 B a
	// cell for the order), the pool's touched after the query.
	if types["snakestore_resident_bytes"] != "gauge" {
		t.Errorf("snakestore_resident_bytes declared as %q, want gauge", types["snakestore_resident_bytes"])
	}
	cells := float64(srv.st().Layout().Order().Len())
	for _, owner := range residentOwners {
		v, ok := samples[`snakestore_resident_bytes{owner="`+owner+`"}`]
		switch {
		case !ok:
			t.Errorf("no snakestore_resident_bytes series for owner %q", owner)
		case owner == "cell_directory" && v != 16*(cells+1), owner == "order" && v != 8*cells,
			(owner == "pool_frames" || owner == "go_heap_other" || owner == "event_ring") && v <= 0:
			t.Errorf("snakestore_resident_bytes{owner=%q} = %v for %v cells", owner, v, cells)
		}
	}
}

// TestMetricsTraceFamilies: the tracing metric families are declared with
// the right types, build_info carries its labels with a constant 1, and
// the retention counters follow the recorder: tracing every request moves
// started/kept, and the per-kind span histograms see the request's spans.
func TestMetricsTraceFamilies(t *testing.T) {
	srv := buildServedTrace(t, snakes.TraceConfig{SampleEvery: 1})
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	getJSON(t, ts, "/query?where=x%3D1..2&where=y%3D2..6", http.StatusOK, nil)

	samples, types := scrape(t, ts.URL)
	for name, typ := range map[string]string{
		"snakestore_slow_query_total":          "counter",
		"snakestore_http_panics_total":         "counter",
		"snakestore_trace_span_seconds":        "histogram",
		"snakestore_traces_started_total":      "counter",
		"snakestore_traces_kept_total":         "counter",
		"snakestore_traces_discarded_total":    "counter",
		"snakestore_trace_spans_dropped_total": "counter",
		"snakestore_build_info":                "gauge",
	} {
		if types[name] != typ {
			t.Errorf("type of %s = %q, want %q", name, types[name], typ)
		}
	}
	found := false
	for key, v := range samples {
		if strings.HasPrefix(key, "snakestore_build_info{") {
			found = true
			if v != 1 {
				t.Errorf("%s = %v, want constant 1", key, v)
			}
			for _, lbl := range []string{"version=", "goversion=", "generation="} {
				if !strings.Contains(key, lbl) {
					t.Errorf("build_info series %s lacks %s label", key, lbl)
				}
			}
		}
	}
	if !found {
		t.Error("no snakestore_build_info series rendered")
	}
	if samples["snakestore_traces_started_total"] != 1 {
		t.Errorf("traces started = %v, want 1", samples["snakestore_traces_started_total"])
	}
	if samples[`snakestore_traces_kept_total{reason="sampled"}`] != 1 {
		t.Errorf("traces kept sampled = %v, want 1", samples[`snakestore_traces_kept_total{reason="sampled"}`])
	}
	for _, key := range []string{
		`snakestore_trace_span_seconds_count{kind="request"}`,
		`snakestore_trace_span_seconds_count{kind="admission"}`,
		`snakestore_trace_span_seconds_count{kind="fragment"}`,
	} {
		if samples[key] <= 0 {
			t.Errorf("%s = %v, want positive", key, samples[key])
		}
	}
}

// TestConcurrentScrapeUnderDrain hammers /query and /metrics from eight
// goroutines through a real serve() and cancels mid-traffic: /metrics must
// never fail, scraped counters must be monotone, histograms must stay
// self-consistent, and queries must never surface a 500.
func TestConcurrentScrapeUnderDrain(t *testing.T) {
	srv, _ := buildServed(t, 256, time.Second, 5*time.Second)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serve(ctx, ln, srv, 5*time.Second) }()
	base := "http://" + ln.Addr().String()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	fail := make(chan string, 16) // non-test goroutines report here
	report := func(msg string) {
		select {
		case fail <- msg:
		default:
		}
	}
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stopped() {
				resp, err := http.Get(base + "/query?where=x%3D1..2&where=y%3D2..6&sum=0")
				if err != nil {
					continue // refused during drain: expected
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusInternalServerError {
					report("query returned 500")
					return
				}
			}
		}()
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := -1.0
			for !stopped() {
				resp, err := http.Get(base + "/metrics")
				if err != nil {
					continue
				}
				body, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				if rerr != nil {
					continue
				}
				if resp.StatusCode != http.StatusOK {
					report(fmt.Sprintf("/metrics returned %d", resp.StatusCode))
					return
				}
				samples, _, perr := parseMetrics(string(body))
				if perr != nil {
					report("bad exposition: " + perr.Error())
					return
				}
				v := samples[`snakestore_http_requests_total{handler="query"}`]
				if v < last {
					report(fmt.Sprintf("request counter went backwards: %v -> %v", last, v))
					return
				}
				last = v
				inf := samples[`snakestore_http_request_seconds_bucket{handler="query",le="+Inf"}`]
				cnt := samples[`snakestore_http_request_seconds_count{handler="query"}`]
				if inf != cnt {
					report(fmt.Sprintf("latency histogram inconsistent: +Inf %v, _count %v", inf, cnt))
					return
				}
			}
		}()
	}

	time.Sleep(150 * time.Millisecond)
	cancel() // begin the drain while both kinds of traffic are in flight
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v after drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not drain in time")
	}
}

// splitSeries parses one sample key `family{k="v",...}` into the family
// name and its label map. Label values are quoted and may contain commas
// (query-class labels do), so this walks the quoting instead of splitting.
func splitSeries(t *testing.T, key string) (family string, labels map[string]string) {
	t.Helper()
	labels = map[string]string{}
	i := strings.IndexByte(key, '{')
	if i < 0 {
		return key, labels
	}
	family = key[:i]
	rest := strings.TrimSuffix(key[i+1:], "}")
	for len(rest) > 0 {
		eq := strings.IndexByte(rest, '=')
		if eq < 0 || len(rest) < eq+2 || rest[eq+1] != '"' {
			t.Fatalf("malformed labels in series %q", key)
		}
		name := rest[:eq]
		rest = rest[eq+2:]
		var val strings.Builder
		for {
			if len(rest) == 0 {
				t.Fatalf("unterminated label value in series %q", key)
			}
			c := rest[0]
			rest = rest[1:]
			if c == '\\' && len(rest) > 0 {
				val.WriteByte(rest[0])
				rest = rest[1:]
				continue
			}
			if c == '"' {
				break
			}
			val.WriteByte(c)
		}
		labels[name] = val.String()
		rest = strings.TrimPrefix(rest, ",")
	}
	return family, labels
}

// TestMetricsLintBuckets: every histogram's bucket series must be
// cumulative — non-decreasing in le order — and its +Inf bucket must equal
// the family's _count for the same label set. A registry bug that skips a
// bucket or miscounts breaks PromQL quantiles silently; this catches it at
// lint time. `make metrics-lint` runs this.
func TestMetricsLintBuckets(t *testing.T) {
	srv, _ := buildServed(t, 64, time.Second, 5*time.Second)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	// Move several histograms: request latency, pages, seeks, fragments.
	getJSON(t, ts, "/query?where=x%3D1..2&where=y%3D2..6&sum=0", http.StatusOK, nil)
	getJSON(t, ts, "/healthz", http.StatusOK, nil)

	samples, types := scrape(t, ts.URL)
	type bucket struct {
		le float64
		v  float64
	}
	groups := map[string][]bucket{} // family + non-le labels -> buckets
	groupKey := func(family string, labels map[string]string) string {
		names := make([]string, 0, len(labels))
		for n := range labels {
			if n != "le" {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		var b strings.Builder
		b.WriteString(family)
		for _, n := range names {
			fmt.Fprintf(&b, "|%s=%s", n, labels[n])
		}
		return b.String()
	}
	counts := map[string]float64{}
	for key, v := range samples {
		family, labels := splitSeries(t, key)
		if base, ok := strings.CutSuffix(family, "_bucket"); ok && types[base] == "histogram" {
			leStr, present := labels["le"]
			if !present {
				t.Errorf("bucket series %s has no le label", key)
				continue
			}
			le, err := strconv.ParseFloat(strings.Replace(leStr, "+Inf", "Inf", 1), 64)
			if err != nil {
				t.Errorf("bucket series %s: le %q: %v", key, leStr, err)
				continue
			}
			groups[groupKey(base, labels)] = append(groups[groupKey(base, labels)], bucket{le, v})
		}
		if base, ok := strings.CutSuffix(family, "_count"); ok && types[base] == "histogram" {
			counts[groupKey(base, labels)] = v
		}
	}
	if len(groups) == 0 {
		t.Fatal("no histogram buckets rendered")
	}
	for g, bs := range groups {
		sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
		for i := 1; i < len(bs); i++ {
			if bs[i].v < bs[i-1].v {
				t.Errorf("%s: bucket le=%v count %v < le=%v count %v (not cumulative)",
					g, bs[i].le, bs[i].v, bs[i-1].le, bs[i-1].v)
			}
		}
		last := bs[len(bs)-1]
		if !math.IsInf(last.le, 1) {
			t.Errorf("%s: largest bucket is le=%v, want +Inf", g, last.le)
		}
		cnt, ok := counts[g]
		if !ok || last.v != cnt {
			t.Errorf("%s: +Inf bucket %v != _count %v (present=%v)", g, last.v, cnt, ok)
		}
	}
}

// maxLabelCardinality is the lint ceiling on distinct values per label
// name per family. The registry's label sets are closed (pre-registered
// from the schema and fixed enums), so any family approaching this is
// leaking unbounded input — request paths, error strings — into labels.
const maxLabelCardinality = 32

// TestMetricsLintCardinality walks every rendered family and fails if any
// label name carries more than maxLabelCardinality distinct values.
// `make metrics-lint` runs this.
func TestMetricsLintCardinality(t *testing.T) {
	srv, _ := buildServed(t, 64, time.Second, 5*time.Second)
	cfg, err := snakes.ParseSLOSpec("default=250ms@99.9")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.enableSLO(cfg); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	getJSON(t, ts, "/query?where=x%3D1..2&where=y%3D2..6&sum=0", http.StatusOK, nil)

	samples, _ := scrape(t, ts.URL)
	vals := map[string]map[string]map[string]bool{} // family -> label -> values
	for key := range samples {
		family, labels := splitSeries(t, key)
		for n, v := range labels {
			if vals[family] == nil {
				vals[family] = map[string]map[string]bool{}
			}
			if vals[family][n] == nil {
				vals[family][n] = map[string]bool{}
			}
			vals[family][n][v] = true
		}
	}
	for family, byLabel := range vals {
		for n, set := range byLabel {
			if len(set) > maxLabelCardinality {
				t.Errorf("family %s label %q has %d distinct values, lint ceiling is %d",
					family, n, len(set), maxLabelCardinality)
			}
		}
	}
}

// TestMetricsLintObsFamilies pins the observability-v2 families to their
// naming contract: slo families always carry a class label with closed
// window/state/result enums, calibration families carry a class label
// except the global seek correction, and the event-ring families are the
// fixed counter/counter/gauge triple. `make metrics-lint` runs this.
func TestMetricsLintObsFamilies(t *testing.T) {
	srv, _ := buildServed(t, 64, time.Second, 5*time.Second)
	cfg, err := snakes.ParseSLOSpec("default=250ms@99.9")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.enableSLO(cfg); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	getJSON(t, ts, "/query?where=x%3D1..2&where=y%3D2..6&sum=0", http.StatusOK, nil)

	samples, types := scrape(t, ts.URL)
	for name, typ := range map[string]string{
		"snakestore_slo_burn_rate":               "gauge",
		"snakestore_slo_state":                   "gauge",
		"snakestore_slo_requests_total":          "counter",
		"snakestore_calibration_page_ratio":      "gauge",
		"snakestore_calibration_seek_ratio":      "gauge",
		"snakestore_calibration_weight":          "gauge",
		"snakestore_calibration_drifted":         "gauge",
		"snakestore_calibration_seek_correction": "gauge",
		"snakestore_event_published_total":       "counter",
		"snakestore_event_overwritten_total":     "counter",
		"snakestore_event_ring_capacity":         "gauge",
	} {
		if types[name] != typ {
			t.Errorf("type of %s = %q, want %q", name, types[name], typ)
		}
	}
	states := map[string]bool{}
	for _, st := range snakes.SLOStates() {
		states[st] = true
	}
	stateSum := map[string]float64{} // class -> Σ state gauges (one-hot)
	for key, v := range samples {
		family, labels := splitSeries(t, key)
		switch {
		case strings.HasPrefix(family, "snakestore_slo_"):
			if labels["class"] == "" {
				t.Errorf("slo series %s has no class label", key)
			}
			switch family {
			case "snakestore_slo_burn_rate":
				if w := labels["window"]; w != "5m" && w != "1h" {
					t.Errorf("%s: window %q outside the closed {5m,1h} set", key, w)
				}
			case "snakestore_slo_state":
				if !states[labels["state"]] {
					t.Errorf("%s: state %q outside the closed SLO state set", key, labels["state"])
				}
				stateSum[labels["class"]] += v
			case "snakestore_slo_requests_total":
				if r := labels["result"]; r != "good" && r != "bad" {
					t.Errorf("%s: result %q outside the closed {good,bad} set", key, r)
				}
			default:
				t.Errorf("unknown slo family %s", family)
			}
		case strings.HasPrefix(family, "snakestore_calibration_"):
			if family == "snakestore_calibration_seek_correction" {
				if len(labels) != 0 {
					t.Errorf("seek correction series %s grew labels", key)
				}
			} else if labels["class"] == "" {
				t.Errorf("calibration series %s has no class label", key)
			}
		case strings.HasPrefix(family, "snakestore_event_"):
			if len(labels) != 0 {
				t.Errorf("event-ring series %s grew labels", key)
			}
		}
	}
	if len(stateSum) == 0 {
		t.Fatal("no slo state gauges rendered")
	}
	for class, sum := range stateSum {
		if sum != 1 {
			t.Errorf("slo state gauges for class %s sum to %v, want exactly one active state", class, sum)
		}
	}
}
