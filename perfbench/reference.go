package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
)

// classes is the number of input classes a seed is folded into.  Each
// class has its own committed reference digests, so a run checks its
// simulated outputs against what the code produced when the reference
// was written, not against another path through the same code.
const classes = 8

// reference is the committed reference.json: per workload and input
// class, one digest per operation (simulation point, full-system run or
// CSV row) and the node-cycles the class simulates.
type reference struct {
	Classes   int                    `json:"classes"`
	Workloads map[string]workloadRef `json:"workloads"`
}

type workloadRef []classRef

type classRef struct {
	Points     []string `json:"points"`
	NodeCycles float64  `json:"node_cycles"`
}

// class returns the reference of input class c, or an empty one (which
// fails every check) when the file has none.
func (w workloadRef) class(c int) classRef {
	if c < len(w) {
		return w[c]
	}
	return classRef{}
}

func parseReference(raw []byte) (reference, error) {
	var r reference
	if err := json.Unmarshal(raw, &r); err != nil {
		return r, fmt.Errorf("reference: %w", err)
	}
	if r.Classes < 1 {
		return r, fmt.Errorf("reference: %d input classes", r.Classes)
	}
	return r, nil
}

// classOf folds a seed into an input class.
func classOf(seed int64, n int) int {
	c := seed % int64(n)
	if c < 0 {
		c += int64(n)
	}
	return int(c)
}

// simSeed is the simulator seed of an input class.
func simSeed(class int) int64 { return int64(class) + 1 }

// digest is a short stable hash of one operation's output.  %#v
// prints every field at full precision and ignores String methods,
// which round.
func digest(v any) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%#v", v)))
	return hex.EncodeToString(sum[:8])
}

// compare counts the positions where got differs from want; a length
// difference counts every unmatched position.
func compare(got, want []string) int {
	bad := max(len(got), len(want)) - min(len(got), len(want))
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			bad++
		}
	}
	return bad
}

// buildReference computes the reference of every workload for n input
// classes at size sz by running each workload's own path once per
// class.
func buildReference(sz size, n int, workDir string, log io.Writer) (reference, error) {
	ref := reference{Classes: n, Workloads: map[string]workloadRef{}}
	for _, name := range workloadNames {
		for c := 0; c < n; c++ {
			cfg := settings{size: sz, seed: int64(c), class: c, classes: n, workDir: workDir, nproc: runtime.NumCPU(), stderr: log}
			w, err := newWorkload(name, cfg)
			if err != nil {
				return ref, err
			}
			cr, err := w.reference()
			if err != nil {
				return ref, fmt.Errorf("%s class %d: %w", name, c, err)
			}
			ref.Workloads[name] = append(ref.Workloads[name], cr)
			fmt.Fprintf(log, "perfbench: reference %s class %d: %d ops\n", name, c, len(cr.Points))
		}
	}
	return ref, nil
}

// writeReference regenerates reference.json.  Run it only when a change
// is meant to alter simulated results; a change that only speeds the
// simulator up must pass against the existing file.
func writeReference(path string, sz size, workDir string, log io.Writer) error {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	ref, err := buildReference(sz, classes, workDir, log)
	if err != nil {
		return err
	}
	raw, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
