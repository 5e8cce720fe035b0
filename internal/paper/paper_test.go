package paper

import (
	"bytes"
	"strings"
	"testing"
)

func TestTableIStructure(t *testing.T) {
	tab := TableI()
	if len(tab.Rows) != 5 {
		t.Fatalf("Table I has %d rows, want 5", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Header) {
			t.Fatalf("row %v has %d cells, header has %d", row, len(row), len(tab.Header))
		}
	}
	// Every model cell must be within ±40% of the paper cell (columns 1/2
	// and 4/5) — the bands the m4 tests also enforce, now end to end.
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	for _, frag := range []string{"NTT transform", "Knuth-Yao", "31 583", "73 406"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Table I output missing %q", frag)
		}
	}
}

func TestTableIIStructure(t *testing.T) {
	tab := TableII()
	if len(tab.Rows) != 6 {
		t.Fatalf("Table II has %d rows, want 6", len(tab.Rows))
	}
	var buf bytes.Buffer
	tab.Render(&buf)
	for _, frag := range []string{"121 166", "43 324", "261 939", "96 520", "P1", "P2"} {
		if !strings.Contains(buf.String(), frag) {
			t.Errorf("Table II output missing %q", frag)
		}
	}
}

func TestTableIIIIncludesLiteratureAndRepro(t *testing.T) {
	tab := TableIII()
	var lit, repro, ablation int
	for _, row := range tab.Rows {
		switch {
		case strings.HasPrefix(row[4], "["):
			lit++
		case row[4] == "this repro":
			repro++
		case row[4] == "this repro (ablation)":
			ablation++
		}
	}
	if lit < 15 {
		t.Errorf("Table III has only %d literature rows", lit)
	}
	if repro != 6 {
		t.Errorf("Table III has %d repro rows, want 6", repro)
	}
	if ablation != 4 {
		t.Errorf("Table III has %d ablation rows, want 4", ablation)
	}
}

func TestExtensionsTable(t *testing.T) {
	tab := Extensions()
	if len(tab.Rows) != 7 {
		t.Fatalf("Extensions has %d rows, want 7 (failure, sampler, KEM, 3 butterfly costs, Shoup vs Barrett)", len(tab.Rows))
	}
	var buf bytes.Buffer
	tab.Render(&buf)
	for _, frag := range []string{"bit-failure", "LUT1", "KEM",
		"Butterfly cost, barrett kernel", "Butterfly cost, packed kernel",
		"Butterfly cost, shoup kernel", "Shoup vs Barrett"} {
		if !strings.Contains(buf.String(), frag) {
			t.Errorf("Extensions output missing %q", frag)
		}
	}
}

func TestTableIVWallClockRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	rlwe, ecies, ratio := WallClockComparison()
	if rlwe <= 0 || ecies <= 0 {
		t.Fatal("non-positive timings")
	}
	// The paper's claim is one order of magnitude in cycles; in this
	// runtime we require at least a clear win for ring-LWE.
	if ratio < 2 {
		t.Errorf("ECIES/ring-LWE ratio %.2f — expected ring-LWE clearly faster", ratio)
	}
}

func TestFigure2MatchesAnchors(t *testing.T) {
	tab := Figure2()
	if len(tab.Rows) != 11 {
		t.Fatalf("Figure 2 has %d rows, want 11 (levels 3-13)", len(tab.Rows))
	}
	var l8, l13 string
	for _, row := range tab.Rows {
		if row[0] == "8" {
			l8 = row[1]
		}
		if row[0] == "13" {
			l13 = row[1]
		}
	}
	if !strings.HasPrefix(l8, "97.2") {
		t.Errorf("level 8 = %s, want ≈ 97.27%%", l8)
	}
	if !strings.HasPrefix(l13, "99.8") {
		t.Errorf("level 13 = %s, want ≈ 99.87%%", l13)
	}
}

func TestFigure1Rendering(t *testing.T) {
	var buf bytes.Buffer
	Figure1(&buf)
	out := buf.String()
	for _, frag := range []string{"55 rows", "109 columns", "218", "180"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Figure 1 output missing %q", frag)
		}
	}
}

func TestProseClaims(t *testing.T) {
	tab := Prose()
	if len(tab.Rows) < 7 {
		t.Fatalf("prose table has %d rows", len(tab.Rows))
	}
	var buf bytes.Buffer
	tab.Render(&buf)
	if !strings.Contains(buf.String(), "28.5") {
		t.Error("prose output missing the 28.5 cycles/sample claim")
	}
}

func TestAllRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full harness")
	}
	var buf bytes.Buffer
	All(&buf)
	if buf.Len() < 4000 {
		t.Fatalf("full output suspiciously short: %d bytes", buf.Len())
	}
	for _, section := range []string{"Table I", "Table II", "Table III", "Table IV", "Figure 1", "Figure 2", "prose"} {
		if !strings.Contains(buf.String(), section) {
			t.Errorf("output missing section %q", section)
		}
	}
}

func TestRenderAlignment(t *testing.T) {
	tab := &Table{
		ID:     "T",
		Title:  "test",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"xxx", "y"}, {"1", "22222"}},
		Notes:  []string{"note"},
	}
	var buf bytes.Buffer
	tab.Render(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// Header + separator + 2 rows inside the table body.
	var tableLines []string
	for _, l := range lines {
		if strings.HasPrefix(l, "|") {
			tableLines = append(tableLines, l)
		}
	}
	if len(tableLines) != 4 {
		t.Fatalf("got %d table lines, want 4", len(tableLines))
	}
	if len(tableLines[0]) != len(tableLines[2]) {
		t.Error("rows not aligned with header")
	}
}

func TestDeltaAndCommas(t *testing.T) {
	if delta(110, 100) != "+10.0%" {
		t.Errorf("delta = %s", delta(110, 100))
	}
	if delta(90, 100) != "-10.0%" {
		t.Errorf("delta = %s", delta(90, 100))
	}
	if delta(5, 0) != "—" {
		t.Errorf("delta(x, 0) = %s", delta(5, 0))
	}
	cases := map[uint64]string{0: "0", 999: "999", 1000: "1 000", 121166: "121 166", 5523280: "5 523 280"}
	for in, want := range cases {
		if got := commas(in); got != want {
			t.Errorf("commas(%d) = %q, want %q", in, got, want)
		}
	}
}
