package sweepsvc

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// Record kinds journaled by the coordinator.  Leases are deliberately
// NOT journaled: they are soft state.  A bounced coordinator forgets
// every lease, the affected points revert to pending, and either the
// original worker's late completion or a fresh lease finishes them —
// completions are idempotent per point, so nothing is lost and nothing
// is duplicated.
const (
	// RecordJob admits a job: its spec and assigned ID.
	RecordJob = "job"
	// RecordPoint completes a point: its row, status, attempt count and
	// whether it counts as a failure.  One per point, ever — duplicate
	// completions are dropped before reaching the WAL.
	RecordPoint = "point"
)

// Record is one WAL line.  The format is JSON lines, so a process
// killed mid-write damages at most the final line, which replay skips
// (and counts) instead of refusing the journal.
type Record struct {
	T        string `json:"t"`
	Job      string `json:"job,omitempty"`
	Spec     *Spec  `json:"spec,omitempty"`   // RecordJob
	Point    int    `json:"point,omitempty"`  // RecordPoint: index into Rates()
	Row      string `json:"row,omitempty"`    // RecordPoint: finished CSV row
	Status   string `json:"status,omitempty"` // RecordPoint: typed status cell
	Attempts int    `json:"attempts,omitempty"`
	Failed   bool   `json:"failed,omitempty"`
}

// WAL is the coordinator's crash-safe journal of state transitions —
// the one journal behind both sweepd and a local cmd/sweep, whose
// -checkpoint FILE is this file.  Every Append is flushed to disk
// before it returns (fsync), so any transition the coordinator has
// acknowledged survives a kill -9; a torn final line from a crash
// mid-Append is skipped and counted at open time.  Appends from
// concurrent callers interleave whole lines.
type WAL struct {
	mu      sync.Mutex
	f       *os.File
	skipped int
}

// OpenWAL opens (creating if absent) the journal at path, replays
// every decodable record in order, and positions the file for
// appending — terminating a torn final line first so the next Append
// starts fresh instead of extending the damage.
func OpenWAL(path string) (*WAL, []Record, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("sweepsvc: wal: %w", err)
	}
	w := &WAL{f: f}
	var recs []Record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var r Record
		if json.Unmarshal(line, &r) != nil || r.T == "" {
			w.skipped++
			continue
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("sweepsvc: wal %s: %w", path, err)
	}
	end, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("sweepsvc: wal %s: %w", path, err)
	}
	if end > 0 {
		var last [1]byte
		if _, err := f.ReadAt(last[:], end-1); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("sweepsvc: wal %s: %w", path, err)
		}
		if last[0] != '\n' {
			if _, err := f.Write([]byte{'\n'}); err != nil {
				f.Close()
				return nil, nil, fmt.Errorf("sweepsvc: wal %s: %w", path, err)
			}
		}
	}
	return w, recs, nil
}

// Append journals one record and flushes it to disk before returning:
// once the coordinator acknowledges a transition to a worker or a
// client, a crash must not forget it.
func (w *WAL) Append(r Record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("sweepsvc: wal: %w", err)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, err := w.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("sweepsvc: wal: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("sweepsvc: wal: %w", err)
	}
	return nil
}

// Skipped returns the number of undecodable lines dropped at open time
// (normally 0, or 1 after a crash mid-Append).
func (w *WAL) Skipped() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.skipped
}

// Close releases the journal file.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}
