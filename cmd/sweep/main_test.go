package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"surfbless/internal/fault"
	"surfbless/internal/probe"
	"surfbless/internal/sweepsvc"
	"surfbless/internal/sweepsvc/backoff"
)

// sweepArgs is a small, fast sweep; -no-cache keeps the test hermetic
// (no results/.simcache created in the repo).
func sweepArgs(extra ...string) []string {
	args := []string{
		"-model", "SB", "-domains", "2",
		"-from", "0.02", "-to", "0.10", "-step", "0.02",
		"-cycles", "400", "-seed", "7", "-no-cache",
	}
	return append(args, extra...)
}

func runSweep(t *testing.T, args []string) (string, string, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return stdout.String(), stderr.String(), code
}

// A parallel sweep must emit a byte-identical CSV to a serial one:
// every point is an isolated deterministic simulation and the emitter
// preserves rate order.
func TestParallelSweepMatchesSerial(t *testing.T) {
	serial, _, code := runSweep(t, sweepArgs("-workers", "1"))
	if code != 0 {
		t.Fatalf("serial sweep exit %d", code)
	}
	for _, workers := range []string{"2", "4"} {
		parallel, _, code := runSweep(t, sweepArgs("-workers", workers))
		if code != 0 {
			t.Fatalf("-workers %s sweep exit %d", workers, code)
		}
		if parallel != serial {
			t.Errorf("-workers %s CSV differs from serial:\n--- serial ---\n%s--- parallel ---\n%s",
				workers, serial, parallel)
		}
	}
	lines := strings.Split(strings.TrimSpace(serial), "\n")
	if len(lines) != 1+5 { // header + rates 0.02..0.10
		t.Fatalf("expected 5 data rows, got %d:\n%s", len(lines)-1, serial)
	}
}

// A parallel sweep must checkpoint every point, and a resumed run must
// replay the journal instead of re-simulating, with identical output.
func TestParallelSweepCheckpointResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	first, _, code := runSweep(t, sweepArgs("-workers", "4", "-checkpoint", ckpt))
	if code != 0 {
		t.Fatalf("first sweep exit %d", code)
	}
	resumed, stderr, code := runSweep(t, sweepArgs("-workers", "4", "-checkpoint", ckpt, "-resume"))
	if code != 0 {
		t.Fatalf("resumed sweep exit %d", code)
	}
	if resumed != first {
		t.Errorf("resumed CSV differs:\n--- first ---\n%s--- resumed ---\n%s", first, resumed)
	}
	if !strings.Contains(stderr, "5 point(s) already journaled") {
		t.Errorf("resume did not replay the journal; stderr:\n%s", stderr)
	}
}

// -remote must print the exact CSV a local run of the same flags
// prints: the coordinator assembles rows rendered by the same
// sweepsvc spec/row layer the local path uses.
func TestRemoteSweepMatchesLocal(t *testing.T) {
	local, _, code := runSweep(t, sweepArgs("-workers", "1"))
	if code != 0 {
		t.Fatalf("local sweep exit %d", code)
	}

	coord, err := sweepsvc.OpenCoordinator(sweepsvc.CoordinatorOptions{
		WALPath: filepath.Join(t.TempDir(), "wal"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	srv, err := sweepsvc.NewServer("127.0.0.1:0", coord, probe.NewMetrics())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pol := backoff.Policy{Base: time.Millisecond, Seed: 3}
	w, err := sweepsvc.NewWorker(sweepsvc.WorkerOptions{
		Name: "w1", Client: sweepsvc.NewClient(srv.Addr()),
		Runner: &sweepsvc.Runner{Policy: pol},
		Slots:  2, Poll: 5 * time.Millisecond, Backoff: pol,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); w.Run(context.Background()) }()
	defer func() { w.Drain(); <-done }()

	remote, stderr, code := runSweep(t, sweepArgs("-remote", srv.Addr(), "-progress"))
	if code != 0 {
		t.Fatalf("remote sweep exit %d; stderr:\n%s", code, stderr)
	}
	if remote != local {
		t.Errorf("remote CSV differs from local:\n--- local ---\n%s--- remote ---\n%s", local, remote)
	}
}

// A coordinator crash-restart between a status poll and row printing
// must not double-print, drop or reorder rows: the streaming loop only
// advances its rate-order cursor and dedups printed rows by point
// fingerprint, which is stable across WAL replays (row indexes are
// not, when a torn tail reverts points).  The hook completes two
// points, lets them print, bounces the coordinator (same WAL, same
// address) while their rows are mid-stream, then completes the rest on
// the new incarnation — stdout must still be byte-identical to a local
// sweep.
func TestRemoteSweepBouncePollPrint(t *testing.T) {
	local, _, code := runSweep(t, sweepArgs("-workers", "1"))
	if code != 0 {
		t.Fatalf("local sweep exit %d", code)
	}

	walPath := filepath.Join(t.TempDir(), "wal")
	coord, err := sweepsvc.OpenCoordinator(sweepsvc.CoordinatorOptions{WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := sweepsvc.NewServer("127.0.0.1:0", coord, probe.NewMetrics())
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	defer func() { srv.Close(); coord.Close() }()

	runner := &sweepsvc.Runner{Policy: backoff.Policy{Base: time.Millisecond, Seed: 3}}
	complete := func(n int) {
		t.Helper()
		leases, err := coord.AcquireLeases("bounce-test", n)
		if err != nil {
			t.Fatalf("AcquireLeases: %v", err)
		}
		for _, l := range leases {
			ex := runner.RunPoint(context.Background(), l.Spec, l.Rate)
			if _, err := coord.CompletePoint(sweepsvc.Completion{
				Lease: l.ID, Job: l.Job, Point: l.Point,
				Row: ex.Row, Status: ex.Status, Attempts: ex.Attempts, Failed: ex.Failed,
			}); err != nil {
				t.Fatalf("CompletePoint: %v", err)
			}
		}
	}
	bounced := false
	poll := 0
	remotePollHook = func(done, total int) {
		defer func() { poll++ }()
		switch poll {
		case 0:
			// First poll saw an all-pending snapshot; finish two points so
			// the next poll streams them.
			complete(2)
		case 1:
			// The streaming loop has fetched rows showing two done points
			// and will print them right after this hook returns — i.e.
			// during the outage.  Crash-restart the coordinator on the
			// same WAL and address, then finish the job on the new
			// incarnation.
			srv.Close()
			coord.Close()
			if coord, err = sweepsvc.OpenCoordinator(sweepsvc.CoordinatorOptions{WALPath: walPath}); err != nil {
				t.Fatalf("reopen coordinator: %v", err)
			}
			for try := 0; ; try++ {
				if srv, err = sweepsvc.NewServer(addr, coord, probe.NewMetrics()); err == nil {
					break
				}
				if try == 50 {
					t.Fatalf("rebind %s: %v", addr, err)
				}
				time.Sleep(10 * time.Millisecond)
			}
			bounced = true
			complete(3)
		}
	}
	defer func() { remotePollHook = nil }()

	remote, stderrOut, code := runSweep(t, sweepArgs("-remote", addr, "-progress"))
	if code != 0 {
		t.Fatalf("remote sweep exit %d; stderr:\n%s", code, stderrOut)
	}
	if !bounced {
		t.Fatal("test rig never bounced the coordinator")
	}
	if remote != local {
		t.Errorf("remote CSV differs from local across the bounce:\n--- local ---\n%s--- remote ---\n%s", local, remote)
	}
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(remote, "\n"), "\n") {
		if seen[line] {
			t.Errorf("row printed twice: %q", line)
		}
		seen[line] = true
	}
}

func TestBadFlagsFail(t *testing.T) {
	if _, _, code := runSweep(t, sweepArgs("-workers", "0")); code == 0 {
		t.Error("-workers 0 must fail")
	}
	if _, _, code := runSweep(t, sweepArgs("-model", "nope")); code == 0 {
		t.Error("unknown model must fail")
	}
	// Combinations that would be silently ignored fail and name the flag.
	dir := t.TempDir()
	for _, c := range []struct {
		args []string
		flag string
	}{
		{sweepArgs("-remote", "127.0.0.1:1", "-workers", "2"), "-workers"},
		{sweepArgs("-checkpoint", filepath.Join(dir, "wal"), "-trace", filepath.Join(dir, "t.txt")), "-trace"},
		{sweepArgs("-point-timeout", "500us"), "-point-timeout"},
	} {
		_, stderr, code := runSweep(t, c.args)
		if code == 0 || !strings.Contains(stderr, c.flag) {
			t.Errorf("%v: exit %d, stderr %q; want a failure naming %s", c.args, code, stderr, c.flag)
		}
	}
}

// sweepSpec is the sweepsvc job sweepArgs() describes.
func sweepSpec() sweepsvc.Spec {
	return sweepsvc.Spec{
		Model: "SB", Domains: 2, From: 0.02, To: 0.10, Step: 0.02,
		Cycles: 400, Seed: 7, MaxAttempts: sweepsvc.DefaultMaxAttempts,
	}
}

// A journal interrupted mid-sweep — 2 of 5 points completed, then a
// torn half-line — resumes to the full CSV of a fresh run, simulating
// only the 3 missing points.
func TestLocalSweepResumesPartialJournal(t *testing.T) {
	fresh, _, code := runSweep(t, sweepArgs())
	if code != 0 {
		t.Fatalf("fresh sweep exit %d", code)
	}

	wal := filepath.Join(t.TempDir(), "sweep.wal")
	coord, err := sweepsvc.OpenCoordinator(sweepsvc.CoordinatorOptions{WALPath: wal})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := coord.SubmitJob(sweepSpec()); err != nil {
		t.Fatal(err)
	}
	leases, err := coord.AcquireLeases("interrupted", 2)
	if err != nil || len(leases) != 2 {
		t.Fatalf("AcquireLeases = %d leases, %v", len(leases), err)
	}
	runner := &sweepsvc.Runner{}
	for _, l := range leases {
		ex := runner.RunPoint(context.Background(), l.Spec, l.Rate)
		if _, err := coord.CompletePoint(sweepsvc.Completion{
			Lease: l.ID, Job: l.Job, Point: l.Point,
			Row: ex.Row, Status: ex.Status, Attempts: ex.Attempts, Failed: ex.Failed,
		}); err != nil {
			t.Fatal(err)
		}
	}
	coord.Close()
	f, err := os.OpenFile(wal, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"t":"point","job":"j1","point":2,"row":"0.06`)
	f.Close()

	resumed, stderr, code := runSweep(t, sweepArgs("-workers", "2", "-checkpoint", wal, "-resume"))
	if code != 0 {
		t.Fatalf("resumed sweep exit %d; stderr:\n%s", code, stderr)
	}
	if resumed != fresh {
		t.Errorf("resumed CSV differs from a fresh run:\n--- fresh ---\n%s--- resumed ---\n%s", fresh, resumed)
	}
	if want := "resume: 2 point(s) already journaled in " + wal + " (1 torn line(s) dropped)"; !strings.Contains(stderr, want) {
		t.Errorf("stderr lacks %q:\n%s", want, stderr)
	}
	w, recs, err := sweepsvc.OpenWAL(wal)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	points := 0
	for _, r := range recs {
		if r.T == sweepsvc.RecordPoint {
			points++
		}
	}
	if points != 5 {
		t.Errorf("journal holds %d point records, want 5 (2 replayed + 3 simulated, none twice)", points)
	}
}

// A point that spends its whole attempt budget is journaled as done
// like any other, so -resume replays its error row (and the failure
// exit) instead of simulating it again.
func TestLocalSweepResumeReplaysFailedPoints(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "sweep.wal")
	args := sweepArgs("-to", "0.02", "-cycles", "200000", "-point-timeout", "1ms", "-attempts", "1", "-checkpoint", wal)
	first, stderr, code := runSweep(t, args)
	if code != 1 {
		t.Fatalf("timed-out sweep exit %d, want 1; stderr:\n%s", code, stderr)
	}
	if want := "0.020,,,,,,,,,error: timeout after 1ms\n"; !strings.HasSuffix(first, want) {
		t.Fatalf("CSV lacks the timeout row %q:\n%s", want, first)
	}
	resumed, stderr, code := runSweep(t, append(args, "-resume"))
	if code != 1 || resumed != first {
		t.Errorf("resume: exit %d, CSV:\n%s; want exit 1 and the journaled CSV:\n%s", code, resumed, first)
	}
	if !strings.Contains(stderr, "resume: 1 point(s) already journaled") || strings.Contains(stderr, "continuing") {
		t.Errorf("resume re-ran the failed point instead of replaying it; stderr:\n%s", stderr)
	}
	if !strings.Contains(stderr, "sweep: 1 point(s) failed") {
		t.Errorf("replayed failure not counted; stderr:\n%s", stderr)
	}
}

// A WH mesh wedged by a permanent all-router freeze degrades every
// point.  The local engine must print exactly the serial reference's
// degraded rows, partial statistics included, and dump one flight
// recording per point.
func TestLocalSweepWedgeMatchesSerialCSV(t *testing.T) {
	dir := t.TempDir()
	plan := &fault.Plan{}
	for n := 0; n < 64; n++ {
		plan.Events = append(plan.Events, fault.Event{Kind: fault.RouterFreeze, Node: n, At: 1000})
	}
	raw, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	planFile := filepath.Join(dir, "wedge.json")
	if err := os.WriteFile(planFile, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	flights := filepath.Join(dir, "flight")
	local, stderr, code := runSweep(t, sweepArgs("-model", "WH", "-to", "0.06", "-cycles", "2000",
		"-faults", planFile, "-workers", "2", "-flight-dir", flights))
	if code != 0 {
		t.Fatalf("wedged sweep exit %d; stderr:\n%s", code, stderr)
	}

	spec := sweepSpec()
	spec.Model, spec.To, spec.Cycles, spec.Faults = "WH", 0.06, 2000, plan
	var serial bytes.Buffer
	if _, err := (&sweepsvc.Runner{}).SerialCSV(context.Background(), spec, &serial); err != nil {
		t.Fatal(err)
	}
	if local != serial.String() {
		t.Errorf("local CSV differs from SerialCSV:\n--- serial ---\n%s--- local ---\n%s", serial.String(), local)
	}
	if n := strings.Count(local, "degraded: fault-wedge"); n != 3 {
		t.Errorf("%d fault-wedge rows, want 3:\n%s", n, local)
	}
	if dumps, _ := filepath.Glob(filepath.Join(flights, "sweep_WH_r*.flight.json")); len(dumps) != 3 {
		t.Errorf("got %d flight dumps, want 3", len(dumps))
	}
}

// A span-exporting sweep writes one loadable Chrome-trace JSON per
// point, and its CSV is identical to an unobserved sweep — the
// exporter rides the probe's event stream without touching results.
func TestSweepSpansExport(t *testing.T) {
	plain, _, code := runSweep(t, sweepArgs("-workers", "1"))
	if code != 0 {
		t.Fatalf("plain sweep exit %d", code)
	}
	dir := t.TempDir()
	spans := filepath.Join(dir, "spans.json")
	observed, _, code := runSweep(t, sweepArgs("-workers", "1", "-spans", spans))
	if code != 0 {
		t.Fatalf("spans sweep exit %d", code)
	}
	if observed != plain {
		t.Errorf("span export changed the CSV:\n--- plain ---\n%s--- spans ---\n%s", plain, observed)
	}
	files, err := filepath.Glob(filepath.Join(dir, "spans_r*.json"))
	if err != nil || len(files) != 5 {
		t.Fatalf("got %d span files (%v), want 5", len(files), err)
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var ct struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &ct); err != nil {
		t.Fatalf("%s is not valid Chrome trace JSON: %v", files[0], err)
	}
	if len(ct.TraceEvents) == 0 {
		t.Errorf("%s holds no trace events", files[0])
	}
}
