package ctlplane

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"
)

// LogRecord is one durable control-plane event. Records are written in
// dispatch order, which is exactly the order the Reconciler assigned
// filter IDs in — replay reapplies them sequentially and must observe
// the same IDs, making the log a self-certifying reconstruction of the
// pre-crash registry.
type LogRecord struct {
	// Seq is the append sequence number (1-based, assigned by Append).
	Seq int64 `json:"seq"`
	// Op is "tenant" (create/update with Quota), "sub" or "unsub".
	Op     string `json:"op"`
	Tenant string `json:"tenant"`
	Host   int    `json:"host,omitempty"`
	// Filters are the subscribed expressions in parseable source form
	// (subscription.Expr.String round-trips through the parser; the
	// FuzzParseSubscription target guards that property).
	Filters []string `json:"filters,omitempty"`
	// IDs are the filter IDs the dispatch assigned ("sub") or removed
	// ("unsub").
	IDs   []int        `json:"ids,omitempty"`
	Quota *TenantQuota `json:"quota,omitempty"`
}

// ErrLogClosed is returned for appends after Close.
var ErrLogClosed = errors.New("ctlplane: event log closed")

// walMaxRecord bounds one record's encoded size; a complete length
// prefix above it can only come from corruption, never from a torn
// append, and fails the open.
const walMaxRecord = 1 << 20

// walHeader is the per-record frame header: 4-byte big-endian payload
// length, then 4-byte big-endian CRC-32 (IEEE) of the payload.
const walHeader = 8

// fsyncInterval is the group-commit window.
const fsyncInterval = 2 * time.Millisecond

// Log is the durable append-only event log: checksummed
// length-prefixed JSON records (4-byte big-endian length, 4-byte
// big-endian CRC-32 of the payload, then the JSON payload) with
// batched fsync. Appends are buffered and a group-commit flusher
// syncs the file every fsyncInterval (or immediately after
// FsyncEveryN records), so one fsync amortizes over a burst of events;
// Sync and Close force the tail out. A process kill can therefore lose
// at most the last unsynced batch and may leave a torn final record —
// OpenLog truncates the tail to the last complete record (Truncated
// reports the dropped byte count) and replay proceeds from a
// consistent prefix. A torn tail is the only damage that is repaired
// silently: mid-file corruption (checksum or framing mismatch with
// committed records after it) fails the open instead of discarding
// durable records.
type Log struct {
	path string

	mu        sync.Mutex
	f         *os.File
	w         *bufio.Writer
	seq       int64
	dirty     int // appends since the last sync
	size      int64
	truncated int64 // torn-tail bytes discarded by OpenLog
	lastErr   error
	closed    bool

	stop chan struct{}
	done chan struct{}
}

// fsyncEveryN forces a sync once this many records are buffered,
// bounding the loss window under sustained load.
const fsyncEveryN = 64

// OpenLog opens (or creates) the event log at path, scans the existing
// records to recover the append position and last sequence number, and
// truncates any torn tail left by a crash (Truncated reports how many
// bytes that dropped). Corruption anywhere before the tail — a
// checksum mismatch, an impossible length, undecodable JSON — is not a
// crash artifact and fails the open rather than silently discarding
// the committed records behind it. The returned log is ready for
// Replay and Append.
func OpenLog(path string) (*Log, error) {
	l := &Log{
		path: path,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ctlplane: open log: %w", err)
	}
	good, lastSeq, _, err := scanLog(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	l.truncated = st.Size() - good
	// A torn tail (partial header or payload) is expected after a
	// kill; truncating to the last complete record restores the
	// append invariant.
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, fmt.Errorf("ctlplane: truncate torn log tail: %w", err)
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	l.f = f
	l.w = bufio.NewWriter(f)
	l.seq = lastSeq
	l.size = good
	go l.flusher()
	return l, nil
}

// scanLog walks the record framing from the start of the file and
// returns the byte offset after the last complete record, the highest
// sequence number seen, and the record count. A torn tail — the
// header or payload cut short by EOF — is the normal crash artifact
// and is reported via good < file size, not as an error. Everything
// else is corruption and fails the scan: appends only ever write a
// prefix of intended bytes, so a fully present frame with a bad
// length, a checksum mismatch, or undecodable JSON cannot be a crash
// leftover.
func scanLog(f *os.File) (good int64, lastSeq int64, n int, err error) {
	if _, err = f.Seek(0, io.SeekStart); err != nil {
		return 0, 0, 0, err
	}
	r := bufio.NewReader(f)
	for {
		rec, size, err := readRecord(r)
		if err == io.EOF || err == errTornRecord {
			return good, lastSeq, n, nil
		}
		if err != nil {
			return good, lastSeq, n, fmt.Errorf("ctlplane: event log at offset %d (record %d): %w", good, n+1, err)
		}
		good += size
		lastSeq = rec.Seq
		n++
	}
}

// errTornRecord is readRecord's verdict on a frame cut short by EOF.
var errTornRecord = errors.New("torn record")

// readRecord decodes the next frame from r and returns the record and
// the frame's byte length. It returns io.EOF at a clean end,
// errTornRecord when EOF cuts the header or payload short, a "corrupt"
// error for an impossible length, a checksum mismatch or undecodable
// JSON, and the read error for anything else.
func readRecord(r *bufio.Reader) (rec LogRecord, size int64, err error) {
	var hdr [walHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = errTornRecord
		}
		return rec, 0, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n == 0 || n > walMaxRecord {
		return rec, 0, fmt.Errorf("corrupt: impossible length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			err = errTornRecord
		}
		return rec, 0, err
	}
	if crc32.ChecksumIEEE(buf) != binary.BigEndian.Uint32(hdr[4:]) {
		return rec, 0, errors.New("corrupt: checksum mismatch")
	}
	if err := json.Unmarshal(buf, &rec); err != nil {
		return rec, 0, fmt.Errorf("corrupt: %w", err)
	}
	return rec, walHeader + int64(n), nil
}

// Append encodes rec, assigns it the next sequence number, and buffers
// it for the group-commit flusher. It returns once the record is in
// the OS write path (not necessarily fsynced; see Sync).
func (l *Log) Append(rec *LogRecord) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrLogClosed
	}
	l.seq++
	rec.Seq = l.seq
	buf, err := json.Marshal(rec)
	if err != nil {
		l.lastErr = err
		return err
	}
	var hdr [walHeader]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(buf)))
	binary.BigEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(buf))
	if _, err := l.w.Write(hdr[:]); err == nil {
		_, err = l.w.Write(buf)
	}
	if err != nil {
		l.lastErr = err
		return err
	}
	l.size += int64(walHeader + len(buf))
	l.dirty++
	if l.dirty >= fsyncEveryN {
		return l.syncLocked()
	}
	return nil
}

// Sync flushes the buffer and fsyncs the file — the durability
// barrier.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrLogClosed
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if l.dirty == 0 {
		return l.lastErr
	}
	if err := l.w.Flush(); err != nil {
		l.lastErr = err
		return err
	}
	if err := l.f.Sync(); err != nil {
		l.lastErr = err
		return err
	}
	l.dirty = 0
	return nil
}

// flusher is the group-commit loop: one fsync per interval covers
// every record appended inside it.
func (l *Log) flusher() {
	defer close(l.done)
	t := time.NewTicker(fsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.mu.Lock()
			if !l.closed {
				l.syncLocked()
			}
			l.mu.Unlock()
		}
	}
}

// Err reports the last append/sync error (the /healthz surface checks
// it: a wedged disk must fail health, not silently drop durability).
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastErr
}

// Seq returns the last assigned sequence number.
func (l *Log) Seq() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Size returns the log's current byte length.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Truncated reports how many torn-tail bytes OpenLog discarded to
// restore the append invariant (0 after a clean shutdown).
func (l *Log) Truncated() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.truncated
}

// Close syncs and closes the log. Further appends fail with
// ErrLogClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	err := func() error {
		if ferr := l.w.Flush(); ferr != nil {
			return ferr
		}
		return l.f.Sync()
	}()
	cerr := l.f.Close()
	l.mu.Unlock()
	close(l.stop)
	<-l.done
	if err != nil {
		return err
	}
	return cerr
}

// Replay streams every complete record (in append order) to fn,
// reading from a separate handle so the append position is untouched.
// It stops early when fn returns an error.
func (l *Log) Replay(fn func(*LogRecord) error) (int, error) {
	l.mu.Lock()
	if err := l.w.Flush(); err != nil {
		l.mu.Unlock()
		return 0, err
	}
	limit := l.size
	path := l.path
	l.mu.Unlock()

	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	r := bufio.NewReader(io.LimitReader(f, limit))
	for n := 0; ; n++ {
		rec, _, err := readRecord(r)
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, fmt.Errorf("ctlplane: replay record %d: %w", n+1, err)
		}
		if err := fn(&rec); err != nil {
			return n, err
		}
	}
}
