package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// newClient returns an HTTP client that holds one keep-alive connection:
// each request goroutine owns one, so connections never outnumber clients.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}
}

// queryReply is the part of /query's JSON the benchmark reads.
type queryReply struct {
	Records    int64    `json:"records"`
	Sum        *float64 `json:"sum"`
	PagesRead  int64    `json:"pagesRead"`
	Seeks      int64    `json:"observedSeeks"`
	DeltaCells int64    `json:"deltaCells"`
}

// sumTolerance is the relative error allowed between the daemon's float
// sum and the oracle's exact one.
const sumTolerance = 1e-9

// ask sends one query and checks the reply against the oracle. The error
// is non-nil for a transport failure, a non-200 status or a wrong answer;
// checkSum is off where a concurrent writer makes the sum a moving target.
func ask(c *http.Client, base string, q *query, withSum, checkSum bool) (queryReply, time.Duration, error) {
	var rep queryReply
	path := q.path
	if withSum {
		path = q.pathSum
	}
	start := time.Now()
	resp, err := c.Get(base + path)
	if err != nil {
		return rep, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return rep, lat, err
	}
	if resp.StatusCode != http.StatusOK {
		return rep, lat, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		return rep, lat, fmt.Errorf("%s: %v", path, err)
	}
	if rep.Records != q.records {
		return rep, lat, fmt.Errorf("%s: %d records, oracle says %d", path, rep.Records, q.records)
	}
	if withSum && checkSum {
		want := q.wantSum()
		if rep.Sum == nil || math.Abs(*rep.Sum-want) > sumTolerance*math.Abs(want) {
			return rep, lat, fmt.Errorf("%s: sum %v, oracle says %v", path, rep.Sum, want)
		}
	}
	return rep, lat, nil
}

// sample is one completed request of the loaded phase.
type sample struct {
	done time.Duration // completion, measured from the start of warm-up
	lat  time.Duration
}

// failures collects what went wrong without stopping the run: every failed
// operation is counted, the first few are kept to be printed.
type failures struct {
	mu    sync.Mutex
	n     int
	first []string
}

func (f *failures) add(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	if len(f.first) < 5 {
		f.first = append(f.first, err.Error())
	}
}

// loadResult is what the loaded phase measured inside its window.
type loadResult struct {
	queries []sample // in-window query samples, all readers
	posts   []sample // in-window /ingest samples, latency from due time

	attempted int // every request sent in warm-up and window
	// Sums of /query reply fields over the window.
	pagesRead, seeks, deltaCells int64

	lateMax     time.Duration // worst open-loop send lateness
	pendingMax  int           // largest pendingCells a post reply reported
	lagMax      float64       // largest compaction lag a scrape saw, seconds
	genCPU      float64       // generator CPU seconds inside the window
	before, end *scrape       // /metrics at the window's two edges
	procBefore  procSample
	procEnd     procSample
	scrapes     []time.Duration
}

// lagProbeEvery is how many posts pass between two looks at the compaction
// lag gauge. At 40 posts/s that is 675 ms: a period that drifts against the
// daemon's 1 s compaction tick, so the probes do not all land just after a
// tick, when the lag is always near zero.
const lagProbeEvery = 27

// ingestBatch is one prepared /ingest post.
type ingestBatch struct {
	body  []byte
	cells []int
	cents []int64
}

type ingestReply struct {
	Accepted     int `json:"accepted"`
	PendingCells int `json:"pendingCells"`
}

// ackLedger remembers, for the durability check, the sum every
// acknowledged cell must now have. A cell whose post failed is in doubt —
// either version may be there — and is not checked again (the failed post
// is already counted).
type ackLedger struct {
	cents   map[int]int64
	inDoubt map[int]bool
}

// prepareBatches draws the writer's posts: cells uniform over the
// non-empty ones, each rewritten at its next version.
func prepareBatches(f *fixture, rng *rand.Rand, n int) []ingestBatch {
	type cellReq struct {
		Coords []int    `json:"coords"`
		Rows   []string `json:"rows"`
	}
	version := make(map[int]int)
	out := make([]ingestBatch, n)
	for i := range out {
		var req struct {
			Cells []cellReq `json:"cells"`
		}
		b := &out[i]
		seen := make(map[int]bool)
		for len(b.cells) < ingestBatchCells {
			cell := f.nonEmpty[rng.Intn(len(f.nonEmpty))]
			if seen[cell] {
				continue
			}
			seen[cell] = true
			version[cell]++
			rows, cents := f.rewriteCell(cell, version[cell], rng)
			b.cells = append(b.cells, cell)
			b.cents = append(b.cents, cents)
			req.Cells = append(req.Cells, cellReq{Coords: f.cellCoords(cell), Rows: rows})
		}
		b.body, _ = json.Marshal(req)
	}
	return out
}

// loadPlan is the traffic of one loaded phase.
type loadPlan struct {
	base     string
	list     []query
	readers  int
	checkSum bool
	batches  []ingestBatch // nil on read-only workloads
	rate     int           // posts per second
	warm     time.Duration
	window   time.Duration
	pid      int
}

// runLoad drives the daemon for warm-up plus window. Queries are a closed
// loop: each reader sends its next request when the previous reply is in.
// Posts are an open loop: post i is due at i/rate seconds whatever happened
// to the posts before it, and its latency counts from that instant.
//
// Reader 0 scrapes /metrics and reads /proc on its own connection as it
// crosses into the window and again when it leaves, so the layer deltas
// cover the window exactly without a third connection.
func runLoad(p loadPlan, fails *failures, ledger *ackLedger) (*loadResult, error) {
	res := &loadResult{}
	var mu sync.Mutex // guards res while the goroutines merge into it
	var next atomic.Int64
	var firstErr error
	fatal := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	t0 := time.Now()
	winStart, winEnd := p.warm, p.warm+p.window
	var cpuStart float64

	var wg sync.WaitGroup
	for r := 0; r < p.readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			var own loadResult
			own.queries = make([]sample, 0, 1<<14)
			edge := func() (*scrape, procSample) {
				s, err := scrapeMetrics(c, p.base)
				if err != nil {
					fatal(err)
					return &scrape{}, procSample{}
				}
				own.scrapes = append(own.scrapes, s.took)
				ps, err := readProc(p.pid)
				if err != nil {
					fatal(err)
				}
				return s, ps
			}
			entered := false
			for {
				now := time.Since(t0)
				if now >= winEnd {
					break
				}
				if r == 0 && !entered && now >= winStart {
					entered = true
					own.before, own.procBefore = edge()
					cpuStart = selfCPU()
				}
				q := &p.list[int(next.Add(1)-1)%len(p.list)]
				own.attempted++
				rep, lat, err := ask(c, p.base, q, true, p.checkSum)
				if err != nil {
					fails.add(err)
					continue
				}
				if done := time.Since(t0); done >= winStart && done < winEnd {
					own.queries = append(own.queries, sample{done: done, lat: lat})
					own.pagesRead += rep.PagesRead
					own.seeks += rep.Seeks
					own.deltaCells += rep.DeltaCells
				}
			}
			if r == 0 {
				own.genCPU = selfCPU() - cpuStart
				own.end, own.procEnd = edge()
			}
			mu.Lock()
			defer mu.Unlock()
			res.queries = append(res.queries, own.queries...)
			res.attempted += own.attempted
			res.pagesRead += own.pagesRead
			res.seeks += own.seeks
			res.deltaCells += own.deltaCells
			res.scrapes = append(res.scrapes, own.scrapes...)
			if r == 0 {
				res.before, res.end = own.before, own.end
				res.procBefore, res.procEnd = own.procBefore, own.procEnd
				res.genCPU = own.genCPU
			}
		}(r)
	}

	if p.batches != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			var posts []sample
			var scrapes []time.Duration
			var lateMax time.Duration
			pendingMax, attempted := 0, 0
			lagMax := 0.0
			for i := range p.batches {
				due := time.Duration(i) * time.Second / time.Duration(p.rate)
				if due >= winEnd {
					break
				}
				if wait := due - time.Since(t0); wait > 0 {
					time.Sleep(wait)
				}
				if late := time.Since(t0) - due; late > lateMax && due >= winStart {
					lateMax = late
				}
				b := &p.batches[i]
				attempted++
				var rep ingestReply
				err := post(c, p.base+"/ingest", b.body, &rep)
				done := time.Since(t0)
				if err == nil && rep.Accepted != len(b.cells) {
					err = fmt.Errorf("/ingest: accepted %d of %d cells", rep.Accepted, len(b.cells))
				}
				if err != nil {
					fails.add(err)
					for _, cell := range b.cells {
						ledger.inDoubt[cell] = true
					}
					continue
				}
				for j, cell := range b.cells {
					ledger.cents[cell] = b.cents[j]
				}
				if due >= winStart {
					posts = append(posts, sample{done: done, lat: done - due})
					if rep.PendingCells > pendingMax {
						pendingMax = rep.PendingCells
					}
				}
				// Between two posts, look at the compaction lag gauge: it
				// has no other outside view.
				if (i+1)%lagProbeEvery == 0 && due >= winStart {
					if s, err := scrapeMetrics(c, p.base); err == nil {
						scrapes = append(scrapes, s.took)
						if lag := s.sum("snakestore_compaction_lag_seconds"); lag > lagMax {
							lagMax = lag
						}
					}
				}
			}
			mu.Lock()
			defer mu.Unlock()
			res.posts, res.lateMax, res.pendingMax, res.lagMax = posts, lateMax, pendingMax, lagMax
			res.attempted += attempted
			res.scrapes = append(res.scrapes, scrapes...)
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if res.before == nil || res.end == nil {
		return nil, fmt.Errorf("loaded phase ended before its measured window began")
	}
	return res, nil
}

// post sends one JSON body and decodes the JSON reply of a 200.
func post(c *http.Client, url string, body []byte, into any) error {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, into)
}

// spinSink keeps the compiler from discarding boxSpin's loop.
var spinSink uint64

// boxSpin times a fixed piece of single-threaded integer work, the fastest
// of three tries. It measures the box, not the store: the sandbox's speed
// drifts by tens of per cent over minutes, and a run's timings can only be
// compared with another run's when this number agrees.
func boxSpin() time.Duration {
	best := time.Duration(math.MaxInt64)
	for try := 0; try < 3; try++ {
		start := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		spinSink = x
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile returns the p-quantile of sorted values by linear interpolation
// between closest ranks.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// ratio is num/den, and 0 where nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// spread is the interquartile range as a share of the median: the
// run-to-run (or slice-to-slice) noise measure every bound is judged by.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := sortedCopy(v)
	med := quantile(s, 0.5)
	if med == 0 {
		return 0
	}
	return (quantile(s, 0.75) - quantile(s, 0.25)) / math.Abs(med)
}

// sliceWidth is the length of the slices the window is cut into. The box's
// disturbances — a neighbour on the host taking the processor's other
// hardware thread, a stolen time slice — last from a fraction of a second to
// a few seconds and only ever slow the program down, so each timed metric is
// taken per slice and the quartile of the slices on the undisturbed side is
// reported: the upper quartile of throughput, the lower quartile of each
// latency percentile. A median over the slices wanders as soon as half of a
// run is disturbed; the quartile holds until three quarters are. Half a
// second still gives a slice a few hundred requests on the slowest workload.
const sliceWidth = 500 * time.Millisecond

// sliceStats cuts the window's samples into slices of sliceWidth by
// completion time and returns, per slice, the sample count, throughput,
// interquartile mean, p50 and p99 (ms). A slice's throughput is its count
// over the time from the last completion before it to its own last
// completion: the time those requests took, not the slice's nominal width.
func sliceStats(samples []sample, winStart, window time.Duration) (counts, qps, mid, p50, p99 []float64) {
	n := max(1, int(window/sliceWidth))
	width := window / time.Duration(n)
	per := make([][]float64, n)
	last := make([]time.Duration, n) // latest completion inside each slice
	for _, s := range samples {
		i := min(int((s.done-winStart)/width), n-1)
		per[i] = append(per[i], ms(s.lat))
		last[i] = max(last[i], s.done)
	}
	prev := winStart
	for i, lats := range per {
		counts = append(counts, float64(len(lats)))
		if len(lats) == 0 {
			qps = append(qps, 0) // the box stalled through the slice: no latency to report
			continue
		}
		qps = append(qps, float64(len(lats))/(last[i]-prev).Seconds())
		prev = last[i]
		sort.Float64s(lats)
		mid = append(mid, mean(lats[len(lats)/4:len(lats)-len(lats)/4]))
		p50 = append(p50, quantile(lats, 0.5))
		p99 = append(p99, quantile(lats, 0.99))
	}
	return
}

// fastQuartile is the quartile of per-slice values on the undisturbed side:
// the upper one where higher is better, the lower one otherwise.
func fastQuartile(v []float64, higherIsBetter bool) float64 {
	if higherIsBetter {
		return quantile(sortedCopy(v), 0.75)
	}
	return quantile(sortedCopy(v), 0.25)
}
