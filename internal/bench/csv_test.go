package bench

import (
	"encoding/csv"
	"strings"
	"testing"
)

func parseCSV(t *testing.T, s string) [][]string {
	t.Helper()
	rows, err := csv.NewReader(strings.NewReader(s)).ReadAll()
	if err != nil {
		t.Fatalf("invalid csv: %v", err)
	}
	return rows
}

func TestTable2CSV(t *testing.T) {
	res, err := paper.RunTable2(t.Context(), []int{128}, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := res.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, sb.String())
	if len(rows) != 5 { // header + 4 algorithms
		t.Fatalf("rows %d", len(rows))
	}
	if rows[0][0] != "n" || rows[0][3] != "measured_bytes" || rows[0][6] != "sim_time_s" {
		t.Fatalf("header %v", rows[0])
	}
	for _, r := range rows[1:] {
		if r[0] != "128" || r[1] != "4" {
			t.Fatalf("row %v", r)
		}
	}
}

func TestFig6aCSV(t *testing.T) {
	res, err := paper.RunFig6a(t.Context(), 128, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := res.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, sb.String())
	if len(rows) != 5 || len(rows[1]) != 6 {
		t.Fatalf("shape: %d rows", len(rows))
	}
	if rows[0][5] != "sim_time_s" {
		t.Fatalf("header %v", rows[0])
	}
}

func TestFig6bCSV(t *testing.T) {
	res, err := paper.RunFig6b(t.Context(), 32, []int{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := res.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if rows := parseCSV(t, sb.String()); len(rows) != 9 { // header + 2P × 4 algos
		t.Fatalf("rows %d", len(rows))
	}
}

func TestFig7CSV(t *testing.T) {
	res, err := paper.RunFig7(t.Context(), []int{128}, []int{4, 100000}, 16)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := res.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, sb.String())
	if len(rows) != 3 {
		t.Fatalf("rows %d", len(rows))
	}
	if rows[1][4] != "measured" || rows[2][4] != "predicted" {
		t.Fatalf("kinds: %v / %v", rows[1], rows[2])
	}
}
