// Package chaos plans and applies deterministic fault schedules against
// snakestore files, for the self-healing test harness and bench.
//
// A Schedule is a pure function of its seed and the store geometry: the
// same seed always yields the same pages, the same fault kinds, and the
// same bit positions, so any failing chaos run replays exactly from the
// seed logged with it. Two layers of faults are covered:
//
//   - On-disk corruptors (BitFlip, TornWrite) flip bits or tear pages in
//     the store file underneath a live server — silent damage only a
//     checksum catches, the input to parity repair.
//   - Storm builds transient-I/O burst schedules for a
//     storage.FaultInjector, exercising the buffer pool's retry policy
//     and crash points mid-migration.
//
// The package itself never decides pass/fail; the tests that use it own
// the assertions.
package chaos

import (
	"fmt"
	"math/rand"
	"os"
	"sort"

	"repro/internal/storage"
)

// Kind is what a scheduled disk fault does to its page.
type Kind int

const (
	// BitFlip flips one bit of the page — the classic silent media error.
	BitFlip Kind = iota
	// TornWrite zeroes the tail half of the page, as if the trailing
	// sectors of a write never reached the platter before a power cut
	// (the file's freshly-created bytes read back as zeroes). Tearing a
	// never-written page is a no-op, exactly like the real event.
	TornWrite
)

func (k Kind) String() string {
	switch k {
	case BitFlip:
		return "bitflip"
	case TornWrite:
		return "torn"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one scheduled disk corruption.
type Event struct {
	Kind Kind
	Page int64 // physical page in the store file
	Bit  int   // BitFlip only: bit offset within the page
}

func (e Event) String() string {
	if e.Kind == BitFlip {
		return fmt.Sprintf("%s page %d bit %d", e.Kind, e.Page, e.Bit)
	}
	return fmt.Sprintf("%s page %d", e.Kind, e.Page)
}

// Schedule is a deterministic batch of disk corruptions for one store
// file. Events are sorted by page so logs read in disk order.
type Schedule struct {
	Seed     int64
	PageSize int
	Events   []Event
}

func (s *Schedule) String() string {
	return fmt.Sprintf("chaos schedule seed=%d faults=%d", s.Seed, len(s.Events))
}

// Plan draws n faults uniformly over a store of totalPages pages. Pages
// may repeat and may share a parity group, so a Plan schedule can produce
// unrepairable damage — use PlanRepairable when the test asserts full
// convergence.
func Plan(seed int64, n int, totalPages int64, pageSize int) *Schedule {
	rng := rand.New(rand.NewSource(seed))
	s := &Schedule{Seed: seed, PageSize: pageSize}
	for i := 0; i < n; i++ {
		s.Events = append(s.Events, drawEvent(rng, rng.Int63n(totalPages), pageSize))
	}
	sortEvents(s.Events)
	return s
}

// PlanRepairable draws at most one fault per parity group of `group` data
// pages, so every scheduled fault is recoverable from the sidecar. n is
// clamped to the number of groups.
func PlanRepairable(seed int64, n int, totalPages int64, group, pageSize int) *Schedule {
	rng := rand.New(rand.NewSource(seed))
	groups := int((totalPages + int64(group) - 1) / int64(group))
	if n > groups {
		n = groups
	}
	s := &Schedule{Seed: seed, PageSize: pageSize}
	for _, g := range rng.Perm(groups)[:n] {
		start := int64(g) * int64(group)
		span := int64(group)
		if start+span > totalPages {
			span = totalPages - start
		}
		s.Events = append(s.Events, drawEvent(rng, start+rng.Int63n(span), pageSize))
	}
	sortEvents(s.Events)
	return s
}

// drawEvent picks a fault kind and coordinates for one page: mostly bit
// flips, with the occasional torn write for variety.
func drawEvent(rng *rand.Rand, page int64, pageSize int) Event {
	e := Event{Page: page}
	if rng.Intn(4) == 0 {
		e.Kind = TornWrite
	} else {
		e.Kind = BitFlip
		e.Bit = rng.Intn(pageSize * 8)
	}
	return e
}

func sortEvents(events []Event) {
	sort.Slice(events, func(i, j int) bool { return events[i].Page < events[j].Page })
}

// Apply injects every event into the store file at path, underneath any
// open FileStore (repair and scrub read the disk, not the pool cache, so
// the damage is visible immediately).
func (s *Schedule) Apply(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("chaos: opening %s: %w", path, err)
	}
	defer f.Close()
	for _, e := range s.Events {
		if err := applyEvent(f, s.PageSize, e); err != nil {
			return fmt.Errorf("chaos: applying %s to %s: %w", e, path, err)
		}
	}
	return f.Sync()
}

func applyEvent(f *os.File, pageSize int, e Event) error {
	base := e.Page * int64(pageSize)
	switch e.Kind {
	case BitFlip:
		off := base + int64(e.Bit/8)
		one := make([]byte, 1)
		if _, err := f.ReadAt(one, off); err != nil {
			return err
		}
		one[0] ^= 1 << (e.Bit % 8)
		_, err := f.WriteAt(one, off)
		return err
	case TornWrite:
		_, err := f.WriteAt(make([]byte, pageSize/2), base+int64(pageSize/2))
		return err
	}
	return fmt.Errorf("unknown fault kind %v", e.Kind)
}

// Storm builds a deterministic transient-I/O burst schedule for a
// storage.FaultInjector: `bursts` windows of `width` consecutive failing
// operations of class op, spread over the first `span` operations. The
// span is divided into equal slots with one burst placed at a seeded
// offset inside each, so bursts never overlap and the whole storm is a
// pure function of its arguments.
func Storm(seed, span int64, bursts, width int, op storage.FaultOp) []storage.Fault {
	rng := rand.New(rand.NewSource(seed))
	if bursts < 1 {
		return nil
	}
	slot := span / int64(bursts)
	if slot <= int64(width) {
		slot = int64(width) + 1
	}
	faults := make([]storage.Fault, 0, bursts)
	for b := 0; b < bursts; b++ {
		start := int64(b)*slot + rng.Int63n(slot-int64(width)+1)
		faults = append(faults, storage.Fault{
			Op:     op,
			Index:  start,
			Kind:   storage.FaultTransient,
			Repeat: width,
		})
	}
	return faults
}
