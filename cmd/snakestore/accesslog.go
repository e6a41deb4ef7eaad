package main

import (
	"bufio"
	"context"
	"io"
	"log/slog"
	"sync"
	"time"
)

// The daemon's log sink. An access line per request written straight to
// stderr is a write(2) per request; behind a buffer it is a memcpy, and the
// buffer is flushed on a short cadence, at once after any record at Warn or
// above (slow queries, panics, corruption, repair), when the drain begins
// and before the process exits. A crash can therefore lose the last
// accessLogFlushEvery of access lines, never a warning.
const (
	accessLogBuffer     = 64 << 10
	accessLogFlushEvery = 100 * time.Millisecond
)

type bufferedLog struct {
	mu sync.Mutex
	w  *bufio.Writer
}

func (b *bufferedLog) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.w.Write(p)
}

// Flush writes out what is buffered, if anything. It drops the error: the
// sink is the process's own stderr, and there is nowhere else to report that
// it failed.
func (b *bufferedLog) Flush() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.w.Flush()
}

// flushOnWarn flushes the sink behind its handler after every record an
// operator must not lose.
type flushOnWarn struct {
	slog.Handler
	out *bufferedLog
}

func (h flushOnWarn) Handle(ctx context.Context, r slog.Record) error {
	err := h.Handler.Handle(ctx, r)
	if r.Level >= slog.LevelWarn {
		h.out.Flush()
	}
	return err
}

func (h flushOnWarn) WithAttrs(attrs []slog.Attr) slog.Handler {
	return flushOnWarn{h.Handler.WithAttrs(attrs), h.out}
}

func (h flushOnWarn) WithGroup(name string) slog.Handler {
	return flushOnWarn{h.Handler.WithGroup(name), h.out}
}

// newBufferedLogger returns a key=value logger on out behind the buffer, the
// buffer's flush, and a stop that ends the cadence and flushes what is left.
func newBufferedLogger(out io.Writer, every time.Duration) (logger *slog.Logger, flush, stop func()) {
	b := &bufferedLog{w: bufio.NewWriterSize(out, accessLogBuffer)}
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				b.Flush()
			}
		}
	}()
	var once sync.Once
	stop = func() {
		once.Do(func() { close(done) })
		<-exited
		b.Flush()
	}
	return slog.New(flushOnWarn{slog.NewTextHandler(b, nil), b}), b.Flush, stop
}
