package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/linear"
	"repro/internal/tpcd"
	"repro/internal/workload"
)

// fixtureConfig sizes the warehouse and the query lists. The benchmark
// proper uses referenceFixture; the smoke test shrinks every field.
type fixtureConfig struct {
	Warehouse tpcd.Config
	ListLen   int // regions per query list, cycled by the load loop
	CountN    int // leading list entries the count pass replays cold
	ReplayN   int // leading list entries the traced pass and the in-process leg replay
	MicroN    int // iterations of the span and event micro-timings
}

// referenceFixture is the reduced TPC-D warehouse the committed BENCH_*.json
// artifacts use: 115,200 cells, 176,473 records, 8 KiB pages. The warehouse
// is part of the benchmark's definition and does not vary with -seed; the
// query lists, the ingested cells and their rewritten values do.
func referenceFixture() fixtureConfig {
	c := tpcd.DefaultConfig()
	c.PartsPerMfr, c.DaysPerMonth, c.Years = 8, 6, 4
	return fixtureConfig{Warehouse: c, ListLen: 4096, CountN: 512, ReplayN: 1000, MicroN: 100_000}
}

// commentWidth pads every row's comment column so the text payload comes to
// about 90 bytes, the size at which the store is ≈1,950 pages.
const commentWidth = 52

// fixture is the generated warehouse plus the oracle: what every region
// query must return, computed from the generated rows and never from the
// program under test.
type fixture struct {
	cfg     fixtureConfig
	ds      *tpcd.Dataset
	shape   []int // leaf counts: parts, suppliers, days
	dimSpec string

	rowStart []int32  // rows of cell c are rows[rowStart[c]:rowStart[c+1]]
	rows     []string // text payload of every record, in cell order
	nonEmpty []int    // cells holding at least one record

	// Prefix sums over the grid, (P+1)×(S+1)×(T+1), of record counts and
	// of extendedprice in integer cents — exact, so the expected sum of a
	// region carries no rounding of its own.
	prefCount []int64
	prefCents []int64

	userBytes int64 // payload bytes of the CSV: the denominator of store_bytes_per_user_byte
}

// newFixture generates the warehouse rows and the oracle's prefix sums.
func newFixture(cfg fixtureConfig) (*fixture, error) {
	ds, err := tpcd.Build(cfg.Warehouse)
	if err != nil {
		return nil, err
	}
	f := &fixture{cfg: cfg, ds: ds, shape: ds.Schema.LeafCounts()}
	var dims []string
	for _, d := range ds.Schema.Dims {
		fan := make([]string, len(d.Fanouts))
		for i, v := range d.Fanouts {
			fan[i] = strconv.Itoa(v)
		}
		dims = append(dims, d.Name+":"+strings.Join(fan, ","))
	}
	f.dimSpec = strings.Join(dims, " ")

	cells := ds.Schema.NumCells()
	f.rowStart = make([]int32, cells+1)
	f.rows = make([]string, 0, ds.Records)
	cellCount := make([]int64, cells)
	cellCents := make([]int64, cells)
	nS, nT := f.shape[1], f.shape[2]
	ds.EachRecord(func(li *tpcd.LineItem) bool {
		p, s, t := li.Cell()
		cell := (p*nS+s)*nT + t
		cents := int64(li.ExtendedPrice*100 + 0.5)
		row := formatRow(cents, li, 0)
		f.rows = append(f.rows, row)
		f.rowStart[cell+1]++
		cellCount[cell]++
		cellCents[cell] += cents
		f.userBytes += int64(len(row))
		return true
	})
	for c := 0; c < cells; c++ {
		f.rowStart[c+1] += f.rowStart[c]
		if cellCount[c] > 0 {
			f.nonEmpty = append(f.nonEmpty, c)
		}
	}
	f.prefCount = f.prefix(cellCount)
	f.prefCents = f.prefix(cellCents)
	return f, nil
}

// formatRow renders one record's payload columns:
// extendedprice,quantity,discount,tax,returnflag,linestatus,shipmode,comment.
// The comment carries the record's order key and a version stamp and is
// padded to a fixed width, so a rewritten row has the byte length of the
// row it replaces.
func formatRow(cents int64, li *tpcd.LineItem, version int) string {
	mode := strings.TrimRight(string(li.ShipMode[:]), "\x00")
	comment := fmt.Sprintf("lineitem %09d v%04d carefully final deposits", li.OrderKey, version%10000)
	comment = (comment + strings.Repeat(" sleep", 4))[:commentWidth]
	return fmt.Sprintf("%d.%02d,%d,%.2f,%.2f,%c,%c,%s,%s",
		cents/100, cents%100, li.Quantity, li.Discount, li.Tax, li.ReturnFlag, li.LineStatus, mode, comment)
}

// prefix builds the inclusive 3-D prefix sums of a per-cell quantity.
func (f *fixture) prefix(v []int64) []int64 {
	P, S, T := f.shape[0], f.shape[1], f.shape[2]
	at := func(p, s, t int) int { return (p*(S+1)+s)*(T+1) + t }
	out := make([]int64, (P+1)*(S+1)*(T+1))
	for p := 1; p <= P; p++ {
		for s := 1; s <= S; s++ {
			for t := 1; t <= T; t++ {
				out[at(p, s, t)] = v[((p-1)*S+(s-1))*T+(t-1)] +
					out[at(p-1, s, t)] + out[at(p, s-1, t)] + out[at(p, s, t-1)] -
					out[at(p-1, s-1, t)] - out[at(p-1, s, t-1)] - out[at(p, s-1, t-1)] +
					out[at(p-1, s-1, t-1)]
			}
		}
	}
	return out
}

// regionTotal evaluates a prefix-sum table over a region.
func (f *fixture) regionTotal(pref []int64, r linear.Region) int64 {
	S, T := f.shape[1], f.shape[2]
	at := func(p, s, t int) int64 { return pref[(p*(S+1)+s)*(T+1)+t] }
	p0, p1, s0, s1, t0, t1 := r[0].Lo, r[0].Hi, r[1].Lo, r[1].Hi, r[2].Lo, r[2].Hi
	return at(p1, s1, t1) - at(p0, s1, t1) - at(p1, s0, t1) - at(p1, s1, t0) +
		at(p0, s0, t1) + at(p0, s1, t0) + at(p1, s0, t0) - at(p0, s0, t0)
}

// cellRows returns the generated rows of one cell.
func (f *fixture) cellRows(cell int) []string {
	return f.rows[f.rowStart[cell]:f.rowStart[cell+1]]
}

// cellCoords splits a cell index into its (part, supplier, day) leaves.
func (f *fixture) cellCoords(cell int) []int {
	nS, nT := f.shape[1], f.shape[2]
	return []int{cell / (nS * nT), cell / nT % nS, cell % nT}
}

// writeCSV writes the warehouse as the CSV `snakestore build` loads: three
// leaf coordinates, then the payload columns.
func (f *fixture) writeCSV(path string) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(out, 1<<20)
	for _, cell := range f.nonEmpty {
		co := f.cellCoords(cell)
		prefix := fmt.Sprintf("%d,%d,%d,", co[0], co[1], co[2])
		for _, row := range f.cellRows(cell) {
			w.WriteString(prefix)
			w.WriteString(row)
			w.WriteByte('\n')
		}
	}
	if err := w.Flush(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// workloadSpec renders a workload as the class:prob list `snakestore
// optimize -workload` parses.
func workloadSpec(w *workload.Workload) string {
	var parts []string
	for _, c := range w.Support() {
		lv := make([]string, len(c))
		for i, v := range c {
			lv[i] = strconv.Itoa(v)
		}
		parts = append(parts, strings.Join(lv, ",")+":"+strconv.FormatFloat(w.Prob(c), 'g', -1, 64))
	}
	return strings.Join(parts, " ")
}

// query is one list entry: the region, the two request URLs that ask for
// it, and the oracle's answer.
type query struct {
	region  linear.Region
	pathSum string // /query?...&sum=0
	path    string // /query?... without sum
	records int64
	cents   int64
}

// wantSum is the oracle's sum of extendedprice over the region.
func (q *query) wantSum() float64 { return float64(q.cents) / 100 }

func (f *fixture) newQuery(r linear.Region) query {
	v := url.Values{}
	for d, dim := range f.ds.Schema.Dims {
		v.Add("where", fmt.Sprintf("%s=%d..%d", dim.Name, r[d].Lo, r[d].Hi))
	}
	base := "/query?" + v.Encode()
	return query{
		region: r, path: base, pathSum: base + "&sum=0",
		records: f.regionTotal(f.prefCount, r), cents: f.regionTotal(f.prefCents, r),
	}
}

// goldenStep is the fractional part of the golden ratio: x, x+φ, x+2φ, …
// (mod 1) is a low-discrepancy sequence, every contiguous stretch of which
// is spread evenly over [0,1).
const goldenStep = 0.6180339887498949

// classList draws n regions from the workload. Each class gets its share
// of the list by probability (largest remainder), so the class mix of the
// list is the workload's and does not wander with the seed. Within a class
// every node is equally likely, but successive entries step through the
// class's nodes along a golden-ratio sequence from a random phase instead
// of being drawn independently, so hot and cold nodes are visited evenly.
// Vacuous regions — selecting no record — are skipped, as sampleRegions in
// cmd/snakebench redraws them. Each class is then spread evenly through the
// list, again from a random phase. Any leading part of the list (the count
// pass, a short measured window) therefore carries the same mix of classes
// and of nodes as the whole, and two seeds differ in which regions they
// ask for, not in how heavy their lists are.
func (f *fixture) classList(w *workload.Workload, rng *rand.Rand, n int) ([]query, error) {
	classes := w.Support()
	quota := make([]int, len(classes))
	type rem struct {
		i    int
		frac float64
	}
	var rems []rem
	left := n
	for i, c := range classes {
		exact := w.Prob(c) * float64(n)
		quota[i] = int(exact)
		left -= quota[i]
		rems = append(rems, rem{i, exact - float64(quota[i])})
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for i := 0; i < left; i++ {
		quota[rems[i%len(rems)].i]++
	}

	type slot struct {
		key float64
		q   query
	}
	slots := make([]slot, 0, n)
	dims := f.ds.Schema.Dims
	for i, c := range classes {
		nodes := 1
		for d, lv := range c {
			nodes *= dims[d].NodesAt(lv)
		}
		nodePhase, listPhase := rng.Float64(), rng.Float64()
		step := 0
		for j := 0; j < quota[i]; j++ {
			var q query
			for {
				if step > 1000*n {
					return nil, fmt.Errorf("class %v: no non-empty region in %d draws; warehouse too sparse", c, step)
				}
				_, frac := math.Modf(nodePhase + float64(step)*goldenStep)
				step++
				node := int(frac * float64(nodes))
				r := make(linear.Region, len(c))
				for d := len(c) - 1; d >= 0; d-- {
					at := dims[d].NodesAt(c[d])
					lo, hi := dims[d].LeafRange(node%at, c[d])
					r[d] = linear.Range{Lo: lo, Hi: hi}
					node /= at
				}
				if q = f.newQuery(r); q.records > 0 {
					break
				}
			}
			slots = append(slots, slot{key: (float64(j) + listPhase) / float64(quota[i]), q: q})
		}
	}
	sort.SliceStable(slots, func(a, b int) bool { return slots[a].key < slots[b].key })
	out := make([]query, len(slots))
	for i := range slots {
		out[i] = slots[i].q
	}
	return out, nil
}

// pointQuery is the single-cell query for one cell's coordinates.
func (f *fixture) pointQuery(coords []int) query {
	r := make(linear.Region, len(coords))
	for d, v := range coords {
		r[d] = linear.Range{Lo: v, Hi: v + 1}
	}
	return f.newQuery(r)
}

// pointList draws n single-cell queries over non-empty cells.
func (f *fixture) pointList(rng *rand.Rand, n int) []query {
	out := make([]query, n)
	for i := range out {
		out[i] = f.pointQuery(f.cellCoords(f.nonEmpty[rng.Intn(len(f.nonEmpty))]))
	}
	return out
}

// rewriteCell returns the rows of a cell as the writer posts them at the
// given version (≥ 1): the same number of rows, each of the same byte
// length, with a fresh extendedprice of the same digit count and the
// version stamped into the comment. The second result is the cell's new sum
// in cents.
func (f *fixture) rewriteCell(cell, version int, rng *rand.Rand) ([]string, int64) {
	old := f.cellRows(cell)
	rows := make([]string, len(old))
	var total int64
	for i, row := range old {
		comma := strings.IndexByte(row, ',')
		intDigits := comma - 3
		lo := int64(1)
		for d := 1; d < intDigits; d++ {
			lo *= 10
		}
		cents := (lo+rng.Int63n(9*lo))*100 + rng.Int63n(100)
		total += cents
		rest := row[comma:]
		stamp := strings.Index(rest, " v0000 ")
		rows[i] = fmt.Sprintf("%d.%02d%s v%04d %s", cents/100, cents%100, rest[:stamp], version%10000, rest[stamp+7:])
	}
	return rows, total
}
