package engine

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"rangeagg/internal/build"
)

// state is what a refused mutation must leave untouched.
type state struct {
	counts           []int64
	records, version int64
	exact            int64
}

func stateOf(e *Engine) state {
	return state{counts: e.Counts(), records: e.Records(), version: e.Version(), exact: e.ExactCount(0, e.Domain()-1)}
}

func wantUnchanged(t *testing.T, e *Engine, before state, what string) {
	t.Helper()
	if after := stateOf(e); !reflect.DeepEqual(after, before) {
		t.Fatalf("%s changed the engine: %+v → %+v", what, before, after)
	}
}

func wantOverflow(t *testing.T, err error, what string) {
	t.Helper()
	var oe *OverflowError
	if !errors.As(err, &oe) {
		t.Fatalf("%s: got %v, want an OverflowError", what, err)
	}
}

// TestLoadValidatesBeforeApplying pins that Load checks every entry
// before it adds any: a bad entry after a good one used to leave the
// good one applied while the call reported an error.
func TestLoadValidatesBeforeApplying(t *testing.T) {
	e, err := New("col", 4)
	if err != nil {
		t.Fatal(err)
	}
	before := stateOf(e)
	if err := e.Load([]int64{5, 0, -1, 0}); err == nil {
		t.Fatal("a load with a negative count was accepted")
	}
	wantUnchanged(t, e, before, "a refused load")
}

// TestMutationsRefuseOverflow pins the MaxTotal bound on the record total
// and the SUM total for every mutation that adds records: a refused
// mutation returns an OverflowError and applies nothing.
func TestMutationsRefuseOverflow(t *testing.T) {
	e, err := New("col", 4)
	if err != nil {
		t.Fatal(err)
	}
	before := stateOf(e)
	for i := 0; i < 2; i++ {
		wantOverflow(t, e.Insert(3, math.MaxInt64), "Insert(3, MaxInt64)")
	}
	wantUnchanged(t, e, before, "a refused insert")

	// The record total may reach MaxTotal but not pass it.
	if err := e.Insert(0, MaxTotal-1); err != nil {
		t.Fatal(err)
	}
	before = stateOf(e)
	wantOverflow(t, e.Insert(0, 2), "an insert past the record bound")
	wantOverflow(t, e.Load([]int64{1, 1, 0, 0}), "a load past the record bound")
	wantUnchanged(t, e, before, "refused mutations")
	if err := e.Insert(0, 1); err != nil || e.Records() != MaxTotal {
		t.Fatalf("an insert up to the bound: err %v, records %d", err, e.Records())
	}

	// The SUM total counts value × count: 3 records at value 3 fit the
	// record bound and break the SUM bound when MaxTotal/3+1 of them land.
	s, err := New("sum", 4)
	if err != nil {
		t.Fatal(err)
	}
	before = stateOf(s)
	wantOverflow(t, s.Insert(3, MaxTotal/3+1), "an insert past the SUM bound")
	wantOverflow(t, s.Load([]int64{0, 0, 0, MaxTotal/3 + 1}), "a load past the SUM bound")
	wantOverflow(t, s.Replace([]int64{0, 0, 0, MaxTotal/3 + 1}), "a replace past the SUM bound")
	wantUnchanged(t, s, before, "refused mutations")
	if err := s.Insert(3, MaxTotal/3); err != nil {
		t.Fatalf("an insert up to the SUM bound: %v", err)
	}

	// AbsorbShard checks the shard against the local totals before it
	// merges anything.
	a, err := New("absorb", 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Insert(1, MaxTotal/2); err != nil {
		t.Fatal(err)
	}
	opts := build.Options{Method: build.EquiWidth, BudgetWords: 4}
	shard := []int64{0, MaxTotal / 2, 1, 0}
	est, err := build.Build(shard, opts)
	if err != nil {
		t.Fatal(err)
	}
	before = stateOf(a)
	_, err = a.AbsorbShard("h", shard, Count, opts, est)
	wantOverflow(t, err, "an absorb past the record bound")
	wantUnchanged(t, a, before, "a refused absorb")
	if _, err := a.Synopsis("h"); err == nil {
		t.Fatal("a refused absorb registered its synopsis")
	}
}
