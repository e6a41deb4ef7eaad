package main

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

// logSink is a stand-in for stderr that signals every write it receives.
type logSink struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	wrote chan struct{}
}

func (s *logSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case s.wrote <- struct{}{}:
	default:
	}
	return s.buf.Write(p)
}

func (s *logSink) lines() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Count(s.buf.String(), "\n")
}

// TestBufferedLoggerFlushPolicy: access lines wait in the buffer; a warning
// pushes everything before it out at once; flush and stop leave nothing
// behind; and the cadence alone delivers a line nobody flushed.
func TestBufferedLoggerFlushPolicy(t *testing.T) {
	sink := &logSink{wrote: make(chan struct{}, 1)}
	log, flush, stop := newBufferedLogger(sink, time.Hour)
	log.Info("request", "req", 1)
	if n := sink.lines(); n != 0 {
		t.Fatalf("an access line reached the sink unflushed (%d lines)", n)
	}
	log.Warn("slow-query", "req", 1)
	if n := sink.lines(); n != 2 {
		t.Fatalf("%d lines at the sink after a warning, want the access line and the warning", n)
	}
	log.With("k", "v").WithGroup("g").Error("panic")
	if n := sink.lines(); n != 3 {
		t.Fatalf("%d lines after an error on a derived logger, want 3", n)
	}
	log.Info("request", "req", 2)
	flush()
	if n := sink.lines(); n != 4 {
		t.Fatalf("%d lines after flush, want 4", n)
	}
	log.Info("request", "req", 3)
	stop()
	stop()
	if n := sink.lines(); n != 5 {
		t.Fatalf("%d lines after stop, want 5", n)
	}

	sink = &logSink{wrote: make(chan struct{}, 1)}
	log, _, stop = newBufferedLogger(sink, time.Millisecond)
	defer stop()
	log.Info("request", "req", 4)
	select {
	case <-sink.wrote:
	case <-time.After(10 * time.Second):
		t.Fatal("the flush cadence never delivered a buffered access line")
	}
}
