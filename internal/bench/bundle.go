// Package bench defines the repository's committed performance trajectory:
// a bundle of named metrics reports (one per benchmark cell) and the diff
// machinery that benchdiff and the CI regression gate run over two
// bundles. The simulator is deterministic, so two bundles produced from
// the same code at the same configuration match cycle-for-cycle — any
// delta is a code change, which is what makes exact gating possible.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"shadowblock/internal/metrics"
)

// Schema identifies the bundle JSON layout. Bump on incompatible change.
const Schema = "shadowblock-bench/v1"

// Bundle is a set of named metrics reports — the unit the perf trajectory
// is committed and diffed in. Cell names identify the (workload, scheme)
// configuration, e.g. "mcf/dynamic-3-pipe".
type Bundle struct {
	Schema string                     `json:"schema"`
	Labels map[string]string          `json:"labels,omitempty"`
	Cells  map[string]*metrics.Report `json:"cells"`
}

// NewBundle returns an empty bundle at the current schema.
func NewBundle() *Bundle {
	return &Bundle{Schema: Schema, Cells: make(map[string]*metrics.Report)}
}

// Add inserts one cell's report under name.
func (b *Bundle) Add(name string, r *metrics.Report) {
	if b.Cells == nil {
		b.Cells = make(map[string]*metrics.Report)
	}
	b.Cells[name] = r
}

// Names returns the cell names in sorted order (map iteration is not
// deterministic; diffs and tables must be).
func (b *Bundle) Names() []string {
	names := make([]string, 0, len(b.Cells))
	for n := range b.Cells {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// DecodeBundle reads a bundle, validating its schema and every cell's
// report schema (the one metrics.DecodeReport accepts).
func DecodeBundle(r io.Reader) (*Bundle, error) {
	var b Bundle
	if err := json.NewDecoder(r).Decode(&b); err != nil {
		return nil, fmt.Errorf("bench: decode bundle: %w", err)
	}
	if b.Schema != Schema {
		return nil, fmt.Errorf("bench: unknown bundle schema %q (want %q)", b.Schema, Schema)
	}
	for name, cell := range b.Cells {
		if cell == nil {
			return nil, fmt.Errorf("bench: cell %q is null", name)
		}
		if cell.Schema != metrics.Schema {
			return nil, fmt.Errorf("bench: cell %q has unknown report schema %q", name, cell.Schema)
		}
	}
	return &b, nil
}

// ReadBundle reads a bundle from a file.
func ReadBundle(path string) (*Bundle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	b, err := DecodeBundle(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// WriteJSON writes the bundle, indented for stable committed diffs, to w.
func (b *Bundle) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// WriteFile writes the bundle to a file.
func (b *Bundle) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := b.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
