package uqsim

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"uqsim/internal/experiments"
)

// committedOpts are the settings results/*.csv were generated with
// (uqsim-experiments -csv -out results/ all: seed 42, full scale).
var committedOpts = experiments.Opts{Seed: 42, Scale: 1}

func readCommitted(t *testing.T, id string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("results", id+".csv"))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestCommittedHybridFaultCSV regenerates the hybridfault experiment and
// requires results/hybridfault.csv byte-for-byte: every column is a
// simulated quantity, so any drift means the fault-coupled fluid tier
// computes something different.
func TestCommittedHybridFaultCSV(t *testing.T) {
	tb, err := experiments.Run("hybridfault", committedOpts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tb.CSV(), readCommitted(t, "hybridfault"); got != want {
		t.Fatalf("hybridfault drifted from results/hybridfault.csv\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestCommittedMillionUserCSV regenerates the millionuser experiment and
// compares it with results/millionuser.csv cell by cell, except for the
// columns derived from wall-clock time.
func TestCommittedMillionUserCSV(t *testing.T) {
	wallClock := []string{"users_per_wall_s", "speedup_x"}
	tb, err := experiments.Run("millionuser", committedOpts)
	if err != nil {
		t.Fatal(err)
	}
	parse := func(name, data string) [][]string {
		rows, err := csv.NewReader(strings.NewReader(data)).ReadAll()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rows) == 0 {
			t.Fatalf("%s: empty", name)
		}
		var drop []int
		for i, col := range rows[0] {
			if slices.Contains(wallClock, col) {
				drop = append(drop, i)
			}
		}
		if len(drop) != len(wallClock) {
			t.Fatalf("%s: header %v lacks a wall-clock column of %v", name, rows[0], wallClock)
		}
		for r, row := range rows {
			kept := row[:0:0]
			for i, cell := range row {
				if !slices.Contains(drop, i) {
					kept = append(kept, cell)
				}
			}
			rows[r] = kept
		}
		return rows
	}
	got := parse("regenerated", tb.CSV())
	want := parse("results/millionuser.csv", readCommitted(t, "millionuser"))
	if len(got) != len(want) {
		t.Fatalf("%d rows, results/millionuser.csv has %d", len(got), len(want))
	}
	for r := range want {
		if !slices.Equal(got[r], want[r]) {
			t.Errorf("row %d:\n got %v\nwant %v", r, got[r], want[r])
		}
	}
}
