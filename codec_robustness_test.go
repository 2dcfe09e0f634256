package rangeagg

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// TestCodecNeverPanicsOnCorruption flips random bytes in serialized
// synopses and asserts the readers fail cleanly (error or a decodable
// object) instead of panicking — the property an engine loading synopses
// from disk depends on.
func TestCodecNeverPanicsOnCorruption(t *testing.T) {
	counts, err := ZipfCounts(25, 1.8, 400, 5)
	if err != nil {
		t.Fatal(err)
	}
	syn, err := Build(counts, Options{Method: SAP1, BudgetWords: 20})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSynopsis(&buf, syn); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	rng := rand.New(rand.NewSource(191))
	for trial := 0; trial < 500; trial++ {
		corrupt := append([]byte(nil), raw...)
		flips := 1 + rng.Intn(8)
		for f := 0; f < flips; f++ {
			corrupt[rng.Intn(len(corrupt))] ^= byte(1 + rng.Intn(255))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: ReadSynopsis panicked: %v", trial, r)
				}
			}()
			s, err := ReadSynopsis(bytes.NewReader(corrupt))
			if err != nil || s == nil {
				return // clean rejection
			}
			// If it decoded, metadata access must also be safe.
			_ = s.Name()
			_ = s.StorageWords()
		}()
	}
}

// TestCodec2DNeverPanicsOnCorruption covers the 2-D JSON codec.
func TestCodec2DNeverPanicsOnCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(193))
	counts := randJoint(rng, 9, 9)
	syn, err := Build2D(counts, WaveRangeOpt2D, 16)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSynopsis2D(&buf, syn); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for trial := 0; trial < 400; trial++ {
		corrupt := append([]byte(nil), raw...)
		for f := 0; f < 1+rng.Intn(6); f++ {
			corrupt[rng.Intn(len(corrupt))] ^= byte(1 + rng.Intn(255))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: ReadSynopsis2D panicked: %v", trial, r)
				}
			}()
			s, err := ReadSynopsis2D(bytes.NewReader(corrupt))
			if err != nil || s == nil {
				return
			}
			_ = s.Name()
			_ = s.StorageWords()
		}()
	}
}

// TestReadSynopsisRejectsRepeatedWaveletIndex: a crafted wavelet file
// that repeats a coefficient index is refused, for the data-domain and
// the prefix-domain kinds. Accepted, it would answer through both
// copies in a full coefficient sum but through one in the index lookup
// that TOPBB and prefix-domain answers read.
func TestReadSynopsisRejectsRepeatedWaveletIndex(t *testing.T) {
	for _, kind := range []string{"data", "prefix"} {
		c := `{"family":"wavelet","payload":{"kind":"` + kind + `","label":"x","n":5,"pow":8,` +
			`"coeffs":[{"Index":0,"Value":4},{"Index":2,"Value":1},{"Index":2,"Value":1}]}}`
		if _, err := ReadSynopsis(strings.NewReader(c)); err == nil {
			t.Errorf("%s: accepted a repeated coefficient index", kind)
		}
	}
}
