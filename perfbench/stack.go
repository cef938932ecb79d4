package main

import (
	"context"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/archive"
	"repro/internal/catalog"
	"repro/internal/tsdb"
)

// storeOptions are the tsdb options spotlake-server passes with its
// flags at their defaults.
func storeOptions() tsdb.Options {
	return tsdb.Options{
		RotateBytes:          tsdb.DefaultRotateBytes,
		CheckpointAfterBytes: 64 << 20,
		MaxSealedSegments:    64,
		MaintenanceInterval:  tsdb.DefaultMaintenanceInterval,
	}
}

// admissionConfig is spotlake-server's admission default with per-client
// throttling off: every request comes from one loopback client, which
// the default 50 req/s limit would throttle.
func admissionConfig() archive.AdmissionConfig {
	return archive.AdmissionConfig{MaxInFlight: 256, MaxQueue: 256, QueueWait: 100 * time.Millisecond}
}

// newService builds a serving stack over db the way spotlake-server does.
func newService(db *tsdb.DB, cat *catalog.Catalog) (*archive.Service, *archive.Admission) {
	svc := archive.NewService(db, cat)
	adm := archive.NewAdmission(admissionConfig())
	svc.SetAdmission(adm)
	return svc, adm
}

// stack is the system under test: the store, the service over it and
// the HTTP server on loopback.
type stack struct {
	dir string
	cat *catalog.Catalog
	db  *tsdb.DB
	svc *archive.Service
	adm *archive.Admission
	srv *http.Server
	url string
	// ing owns the collection cursor: the next tick to write and the
	// points acknowledged so far.
	ing *ingester
	// checkpoint is how long set-up's explicit sealing Checkpoint took.
	checkpoint time.Duration
}

// setUp generates the archive into dir, seals it and starts serving: the
// work setup_s times. With a tracer the server records a span around
// every request that asks for one (see traceHeader).
func setUp(dir string, cat *catalog.Catalog, m *model, ticks int, tr *tracer) (*stack, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	db, err := tsdb.OpenWithOptions(dir, storeOptions())
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	st := &stack{dir: dir, cat: cat, db: db, ing: &ingester{db: db, m: m}}
	for t := 0; t < ticks; t++ {
		if _, _, err := st.ing.tick(false); err != nil {
			db.Close()
			return nil, err
		}
	}
	if err := db.Flush(); err != nil {
		db.Close()
		return nil, fmt.Errorf("flush: %w", err)
	}
	t0 := time.Now()
	if err := db.Checkpoint(); err != nil {
		db.Close()
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	st.checkpoint = time.Since(t0)
	st.svc, st.adm = newService(db, cat)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		db.Close()
		return nil, err
	}
	st.url = "http://" + ln.Addr().String()
	handler := st.svc.Handler()
	if tr != nil {
		handler = traceRequests(handler, tr)
	}
	st.srv = &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	go st.srv.Serve(ln)
	return st, nil
}

// traceRequests records a "server" span around each request to h that
// carries traceHeader, inside the time the client measures, so traced
// arrivals pay what tracing costs.
func traceRequests(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		arrival, err := strconv.Atoi(r.Header.Get(traceHeader))
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		tr.record("server", 0, arrival, 0, t0, time.Now())
	})
}

// stopServing drains the HTTP server; the store stays open.
func (st *stack) stopServing() {
	if st.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st.srv.Shutdown(ctx)
	st.srv = nil
}

// close stops serving and closes the store.
func (st *stack) close() error {
	st.stopServing()
	return st.db.Close()
}

// reopen closes the store and opens it again on the same directory, the
// restart after a spot interruption; it returns the time both took.
func (st *stack) reopen() (time.Duration, error) {
	st.stopServing()
	t0 := time.Now()
	if err := st.db.Close(); err != nil {
		return 0, fmt.Errorf("close: %w", err)
	}
	db, err := tsdb.OpenWithOptions(st.dir, storeOptions())
	d := time.Since(t0)
	if err != nil {
		return 0, fmt.Errorf("reopen: %w", err)
	}
	st.db, st.ing.db = db, db
	return d, nil
}

// diskBytes sums the regular files under dir.
func diskBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// ingester writes collection ticks the way internal/collector does: one
// AppendBatchIfChanged per tick over every series, then a Flush.
type ingester struct {
	db  *tsdb.DB
	m   *model
	buf []tsdb.Entry
	// next is the next tick to write.
	next int
	// points counts the points the store acknowledged.
	points int64
	// walBytes and walPoints accumulate WAL growth over ticks no
	// checkpoint overlapped.
	walBytes, walPoints int64
}

// prepare builds the next tick's batch; it is not part of a tick's time.
func (g *ingester) prepare() { g.buf = g.m.entries(g.buf, g.next) }

// tick writes the next tick and returns how long the append and, with
// flush, the Flush took. Set-up loads without flushing each tick, as the
// collector's bootstrap does.
func (g *ingester) tick(flush bool) (appendDur, flushDur time.Duration, err error) {
	if len(g.buf) == 0 {
		g.prepare()
	}
	wal0, cp0 := g.db.WALBytesSinceCheckpoint(), g.db.MaintenanceStats().Checkpoints
	t0 := time.Now()
	n, err := g.db.AppendBatchIfChanged(g.buf)
	t1 := time.Now()
	if err != nil {
		return 0, 0, fmt.Errorf("append tick %d: %w", g.next, err)
	}
	if flush {
		if err := g.db.Flush(); err != nil {
			return 0, 0, fmt.Errorf("flush tick %d: %w", g.next, err)
		}
	}
	t2 := time.Now()
	wal1, cp1 := g.db.WALBytesSinceCheckpoint(), g.db.MaintenanceStats().Checkpoints
	if cp1 == cp0 && wal1 >= wal0 {
		g.walBytes += int64(wal1 - wal0)
		g.walPoints += int64(n)
	}
	g.points += int64(n)
	g.next++
	g.buf = g.buf[:0]
	return t1.Sub(t0), t2.Sub(t1), nil
}
