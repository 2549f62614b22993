package sweepsvc

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// appendPoints journals each (appender, i) point from its own
// goroutine, concurrently with every other appender.
func appendPoints(t *testing.T, w *WAL, job string, appenders, each int) {
	t.Helper()
	var wg sync.WaitGroup
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				rec := Record{T: RecordPoint, Job: job, Point: a*each + i, Row: fmt.Sprintf("row a%d i%d", a, i)}
				if err := w.Append(rec); err != nil {
					t.Error(err)
					return
				}
			}
		}(a)
	}
	wg.Wait()
}

// reopenRows opens path afresh and returns every replayed point row
// keyed by job/point plus the skipped-line count; a point replayed
// twice fails the test.
func reopenRows(t *testing.T, path string) (map[string]string, int) {
	t.Helper()
	w, recs, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	rows := map[string]string{}
	for _, r := range recs {
		k := fmt.Sprintf("%s/%d", r.Job, r.Point)
		if _, dup := rows[k]; dup {
			t.Fatalf("point %s replayed twice", k)
		}
		rows[k] = r.Row
	}
	return rows, w.Skipped()
}

// Sustained concurrent appenders — a coordinator's worker slots all
// completing points through one WAL — must interleave at line
// granularity: every record survives a reopen intact and no write
// tears another's line.
func TestWALConcurrentAppenders(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	const appenders, each = 8, 25
	appendPoints(t, w, "j1", appenders, each)
	w.Close()

	rows, skipped := reopenRows(t, path)
	if len(rows) != appenders*each || skipped != 0 {
		t.Fatalf("concurrent journal: %d records, %d skipped; want %d, 0", len(rows), skipped, appenders*each)
	}
	for a := 0; a < appenders; a++ {
		for i := 0; i < each; i++ {
			k := fmt.Sprintf("j1/%d", a*each+i)
			if want := fmt.Sprintf("row a%d i%d", a, i); rows[k] != want {
				t.Fatalf("record %s lost or mangled: %q, want %q", k, rows[k], want)
			}
		}
	}
}

// Reopening over a torn tail and then appending concurrently: OpenWAL
// must terminate the torn line before any appender reaches the file,
// so none of their lines are glued onto the damage.  This is the
// coordinator-bounce path — the WAL reopens mid-sweep with worker
// slots still completing points.
func TestWALTornTailResumeWhileInFlight(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Record{T: RecordPoint, Job: "j0", Point: 0, Row: "survivor"}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"t":"point","job":"j0","point":1,"row":"torn mid-crash`)
	f.Close()

	w2, _, err := OpenWAL(path)
	if err != nil {
		t.Fatalf("torn tail made the journal unopenable: %v", err)
	}
	if w2.Skipped() != 1 {
		t.Fatalf("Skipped = %d, want 1 torn line", w2.Skipped())
	}
	const appenders, each = 6, 20
	appendPoints(t, w2, "j1", appenders, each)
	w2.Close()

	// survivor + every in-flight append; exactly the original torn line
	// is skipped — no resumed line was corrupted by the damage.
	rows, skipped := reopenRows(t, path)
	if len(rows) != 1+appenders*each || skipped != 1 {
		t.Fatalf("after in-flight resume: %d records, %d skipped; want %d, 1", len(rows), skipped, 1+appenders*each)
	}
	if rows["j0/0"] != "survivor" {
		t.Errorf("pre-crash record lost: %q", rows["j0/0"])
	}
}
