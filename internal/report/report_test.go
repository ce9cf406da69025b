package report

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tab := NewTable("Title", "A", "Blonger")
	tab.Add("x", "y")
	tab.Add("longcell", "z", "extra")
	out := tab.String()
	if !strings.HasPrefix(out, "Title\n") {
		t.Fatalf("missing title:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title, header, rule, 2 rows
	if len(lines) != 5 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "A") || !strings.Contains(lines[1], "Blonger") {
		t.Fatalf("header wrong: %q", lines[1])
	}
	if !strings.Contains(lines[4], "extra") {
		t.Fatal("extra cell dropped")
	}
	// Columns align: "y" and "z" start at the same offset.
	if strings.Index(lines[3], "y") != strings.Index(lines[4], "z") {
		t.Fatalf("columns misaligned:\n%s", out)
	}
}

func TestAddfFormatting(t *testing.T) {
	tab := NewTable("", "n", "f", "s")
	tab.Addf(42, 3.14159, "str")
	tab.Addf(7, 100.0, "x")
	if tab.Rows[0][1] != "3.142" {
		t.Fatalf("float cell = %q", tab.Rows[0][1])
	}
	if tab.Rows[1][1] != "100" {
		t.Fatalf("integral float cell = %q", tab.Rows[1][1])
	}
	if tab.Rows[0][0] != "42" || tab.Rows[0][2] != "str" {
		t.Fatalf("cells = %v", tab.Rows[0])
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		1:        "1",
		-3:       "-3",
		0.5:      "0.5",
		1234.567: "1235",
	}
	for v, want := range cases {
		if got := FormatFloat(v); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	tab := NewTable("ignored", "a", "b")
	tab.Add("1", "2")
	tab.Add("with,comma", "y")
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := "a,b\n1,2\n\"with,comma\",y\n"
	if got != want {
		t.Fatalf("csv = %q, want %q", got, want)
	}

	dir := filepath.Join(t.TempDir(), "new")
	if err := tab.WriteCSVFile(dir, "tab"); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(filepath.Join(dir, "tab.csv")); err != nil || string(b) != want {
		t.Fatalf("csv file = (%q, %v), want %q", b, err, want)
	}
	if err := tab.WriteCSVFile(filepath.Join(dir, "tab.csv"), "x"); err == nil {
		t.Fatal("WriteCSVFile under a regular file succeeded")
	}
}

func TestBars(t *testing.T) {
	out := Bars("chart", []string{"one", "two"}, []float64{1, 2}, "GB/s")
	if !strings.Contains(out, "chart") || !strings.Contains(out, "one") {
		t.Fatalf("bars output:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	count := func(s string) int { return strings.Count(s, "#") }
	if count(lines[2]) != 2*count(lines[1]) {
		t.Fatalf("bars not proportional:\n%s", out)
	}
	if !strings.Contains(lines[2], "2GB/s") {
		t.Fatalf("value missing:\n%s", out)
	}
	// Zero values render without bars.
	if z := Bars("", []string{"a"}, []float64{0}, ""); !strings.Contains(z, "|") {
		t.Fatalf("zero bars:\n%s", z)
	}
}
