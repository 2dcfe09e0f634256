package rangeagg

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"rangeagg/internal/build"
	"rangeagg/internal/engine"
	"rangeagg/internal/fsx"
)

// Store is a catalog of named columns, each a full Engine, with JSON
// persistence: Save records every column's distribution and synopsis
// specifications, and OpenStore restores them, rebuilding the synopses
// deterministically (synopses are derived data, so specs — not
// estimator bytes — are the durable form).
type Store struct {
	mu   sync.RWMutex
	name string
	cols map[string]*Engine
}

// NewStore creates an empty store.
func NewStore(name string) *Store {
	return &Store{name: name, cols: make(map[string]*Engine)}
}

// Name returns the store name.
func (s *Store) Name() string { return s.name }

// CreateColumn adds a column over [0, domain) and returns its engine.
// The name must be new.
func (s *Store) CreateColumn(name string, domain int) (*Engine, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.cols[name]; exists {
		return nil, fmt.Errorf("rangeagg: column %q already exists", name)
	}
	e, err := NewEngine(name, domain)
	if err != nil {
		return nil, err
	}
	s.cols[name] = e
	return e, nil
}

// Column returns a column's engine by name.
func (s *Store) Column(name string) (*Engine, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.cols[name]
	if !ok {
		return nil, fmt.Errorf("rangeagg: no column named %q", name)
	}
	return e, nil
}

// DropColumn removes a column, reporting whether it existed.
func (s *Store) DropColumn(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.cols[name]
	delete(s.cols, name)
	return ok
}

// Columns lists the column names, sorted.
func (s *Store) Columns() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.cols))
	for n := range s.cols {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// storeWire is the persistence format.
type storeWire struct {
	Name    string       `json:"name"`
	Columns []columnWire `json:"columns"`
}

type columnWire struct {
	Name     string         `json:"name"`
	Domain   int            `json:"domain"`
	Counts   []int64        `json:"counts"`
	Synopses []synopsisWire `json:"synopses"`
}

type synopsisWire struct {
	Name    string        `json:"name"`
	Metric  engine.Metric `json:"metric"`
	Options build.Options `json:"options"`
}

// Save writes the store — distributions plus synopsis specifications —
// as JSON.
func (s *Store) Save(w io.Writer) error {
	s.mu.RLock()
	names := make([]string, 0, len(s.cols))
	for n := range s.cols {
		names = append(names, n)
	}
	sort.Strings(names)
	wire := storeWire{Name: s.name}
	for _, n := range names {
		e := s.cols[n].inner
		cw := columnWire{Name: n, Domain: e.Domain(), Counts: e.Counts()}
		for _, syn := range e.Synopses() {
			cw.Synopses = append(cw.Synopses, synopsisWire{
				Name: syn.Name, Metric: syn.Metric, Options: syn.Options,
			})
		}
		wire.Columns = append(wire.Columns, cw)
	}
	s.mu.RUnlock()
	return json.NewEncoder(w).Encode(wire)
}

// SaveFile writes the store to a file crash-safely: the JSON is written
// to a temp file in the destination directory, fsynced, and atomically
// renamed over the path, so a crash mid-save never truncates the
// previous good copy.
func (s *Store) SaveFile(path string) error {
	return fsx.WriteFileAtomic(path, s.Save)
}

// OpenStoreFile restores a store from a file written by SaveFile.
func OpenStoreFile(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return OpenStore(f)
}

// OpenStore restores a store written by Save, rebuilding every synopsis
// from its recorded options against the restored data.
func OpenStore(r io.Reader) (*Store, error) {
	var wire storeWire
	if err := json.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("rangeagg: decoding store: %w", err)
	}
	s := NewStore(wire.Name)
	for _, cw := range wire.Columns {
		col, err := s.CreateColumn(cw.Name, cw.Domain)
		if err != nil {
			return nil, err
		}
		if len(cw.Counts) != cw.Domain {
			return nil, fmt.Errorf("rangeagg: column %q has %d counts for domain %d",
				cw.Name, len(cw.Counts), cw.Domain)
		}
		if err := col.inner.Load(cw.Counts); err != nil {
			return nil, fmt.Errorf("rangeagg: column %q: %w", cw.Name, err)
		}
		for _, sw := range cw.Synopses {
			if _, err := col.inner.BuildSynopsis(sw.Name, sw.Metric, sw.Options); err != nil {
				return nil, fmt.Errorf("rangeagg: rebuilding synopsis %q of column %q: %w",
					sw.Name, cw.Name, err)
			}
		}
	}
	return s, nil
}
