package bench

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestRunRatioExactSweepSmoke(t *testing.T) {
	rep, err := RunRatioExactSweep(RatioExactConfig{Sizes: [][2]int{{24, 96}}, Seeds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if len(rep.Rows) != 1 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	row := rep.Rows[0]
	if row.Value == "" {
		t.Fatal("missing ρ* fingerprint")
	}
	for _, name := range RatioExactAlgos {
		cell, ok := row.Cells[name]
		if !ok {
			t.Fatalf("no cell for %s", name)
		}
		if cell.Probes == 0 || cell.Iterations == 0 || cell.Relaxations == 0 {
			t.Errorf("%s: empty counters: %+v", name, cell)
		}
	}

	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back RatioExactReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Rows[0].Value != row.Value {
		t.Fatalf("JSON round-trip lost the fingerprint: %q vs %q", back.Rows[0].Value, row.Value)
	}

	var sb strings.Builder
	WriteRatioExact(&sb, rep)
	for _, name := range RatioExactAlgos {
		if !strings.Contains(sb.String(), name) {
			t.Errorf("rendered table misses %s:\n%s", name, sb.String())
		}
	}
}
