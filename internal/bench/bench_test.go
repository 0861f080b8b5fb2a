package bench

import (
	"strconv"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"ablation-arch", "ablation-preemptive", "ablation-schemes", "ablation-slico",
		"bitwidth", "ext-bandwidth", "ext-convergence", "ext-dvfs", "ext-funcsim", "ext-ksweep", "ext-multicore", "ext-power", "ext-resolution-quality", "ext-subsample-hw", "ext-temporal",
		"fig2a", "fig2b", "fig6",
		"table1", "table2", "table3", "table4", "table5",
	}
	got := Experiments()
	if len(got) != len(want) {
		t.Fatalf("%d experiments registered, want %d", len(got), len(want))
	}
	for i, r := range got {
		if r.ID != want[i] {
			t.Errorf("experiment %d = %q, want %q", i, r.ID, want[i])
		}
		if r.Description == "" || r.Run == nil {
			t.Errorf("experiment %q incomplete", r.ID)
		}
	}
	if _, ok := Lookup("table3"); !ok {
		t.Error("Lookup failed for table3")
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup succeeded for unknown ID")
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{
		ID:      "x",
		Title:   "demo",
		Columns: []string{"a", "bee"},
		Notes:   []string{"hello"},
	}
	tbl.AddRow("1", "2")
	out := tbl.Render()
	for _, want := range []string{"== x: demo ==", "a", "bee", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tbl := &Table{Columns: []string{"a", "b"}}
	tbl.AddRow("x,y", `q"z`)
	csv := tbl.CSV()
	if !strings.Contains(csv, `"x,y"`) || !strings.Contains(csv, `"q""z"`) {
		t.Fatalf("CSV escaping wrong: %q", csv)
	}
	if !strings.HasPrefix(csv, "a,b\n") {
		t.Fatalf("CSV header wrong: %q", csv)
	}
}

// cell parses a numeric cell, tolerating suffixes like "MB/iteration".
func cell(t *testing.T, s string) float64 {
	t.Helper()
	fields := strings.Fields(s)
	num := strings.TrimSuffix(strings.TrimSuffix(fields[0], "%"), "×")
	for _, suffix := range []string{"MB/iteration", "kB", "ms", "mW", "mJ", "W"} {
		num = strings.TrimSuffix(num, suffix)
	}
	v, err := strconv.ParseFloat(num, 64)
	if err != nil {
		t.Fatalf("cannot parse cell %q: %v", s, err)
	}
	return v
}

func TestTable2Experiment(t *testing.T) {
	tbl, err := run(t, "table2")
	if err != nil {
		t.Fatal(err)
	}
	// Row 0: bandwidth CPA vs PPA; CPA must be ~3× PPA.
	cpaBW := cell(t, tbl.Rows[0][1])
	ppaBW := cell(t, tbl.Rows[0][2])
	if ratio := cpaBW / ppaBW; ratio < 2.8 || ratio > 3.5 {
		t.Errorf("bandwidth ratio %.2f", ratio)
	}
	// Row 2: §4.2 energy model must favor PPA.
	cpaE := cell(t, tbl.Rows[2][1])
	ppaE := cell(t, tbl.Rows[2][2])
	if ppaE >= cpaE {
		t.Errorf("PPA model energy %.1f not below CPA %.1f", ppaE, cpaE)
	}
}

func TestTable3Experiment(t *testing.T) {
	tbl, err := run(t, "table3")
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("%d rows, want 5", len(tbl.Rows))
	}
	if tbl.Rows[4][0] != "9-9-6" {
		t.Fatalf("last row %q, want 9-9-6", tbl.Rows[4][0])
	}
	// 9-9-6 time must be ~1/9 of 1-1-1 time.
	t111 := cell(t, tbl.Rows[0][5])
	t996 := cell(t, tbl.Rows[4][5])
	if r := t111 / t996; r < 8.5 || r > 9.5 {
		t.Errorf("time ratio %.1f, want ~9", r)
	}
}

func TestFig6Experiment(t *testing.T) {
	tbl, err := run(t, "fig6")
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 8 {
		t.Fatalf("%d rows, want 8", len(tbl.Rows))
	}
	// Real-time column flips from false to true at 4 kB and stays true.
	sawTrue := false
	for _, row := range tbl.Rows {
		rt := row[3] == "true"
		if sawTrue && !rt {
			t.Error("real-time regressed at larger buffer")
		}
		if rt {
			sawTrue = true
		}
	}
	if tbl.Rows[0][3] != "false" || tbl.Rows[2][3] != "true" {
		t.Error("real-time crossing not at 4 kB")
	}
}

func TestTable4Experiment(t *testing.T) {
	tbl, err := run(t, "table4")
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("%d rows, want 3", len(tbl.Rows))
	}
	// Latency decreases, fps and fps/mm² increase down the table.
	for i := 1; i < 3; i++ {
		if cell(t, tbl.Rows[i][4]) >= cell(t, tbl.Rows[i-1][4]) {
			t.Error("latency not decreasing with resolution")
		}
		if cell(t, tbl.Rows[i][5]) <= cell(t, tbl.Rows[i-1][5]) {
			t.Error("fps not increasing with resolution")
		}
	}
	// All rows real-time.
	for _, row := range tbl.Rows {
		if cell(t, row[5]) < 30 {
			t.Errorf("%s below 30 fps", row[0])
		}
	}
}

func TestTable5Experiment(t *testing.T) {
	tbl, err := run(t, "table5")
	if err != nil {
		t.Fatal(err)
	}
	// Find the normalized-energy row and check the headline ratios.
	var k20, tk1, acc float64
	for _, row := range tbl.Rows {
		if strings.HasPrefix(row[0], "Energy/frame") {
			k20 = cell(t, row[1])
			tk1 = cell(t, row[2])
			acc = cell(t, row[3])
		}
	}
	if k20 == 0 || tk1 == 0 || acc == 0 {
		t.Fatal("energy row missing")
	}
	if r := k20 / acc; r < 400 {
		t.Errorf("K20 efficiency ratio %.0f, paper says >500", r)
	}
	if r := tk1 / acc; r < 200 {
		t.Errorf("TK1 efficiency ratio %.0f, paper says >250", r)
	}
}

func run(t *testing.T, id string) (*Table, error) {
	t.Helper()
	r, ok := Lookup(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	return r.Run(QuickOptions())
}

func TestQualityExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quality experiments are slow")
	}
	for _, id := range []string{"fig2a", "fig2b", "table1", "bitwidth", "ext-funcsim"} {
		tbl, err := run(t, id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tbl.Rows) == 0 {
			t.Fatalf("%s: empty table", id)
		}
	}
}

func TestFig2aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tbl, err := run(t, "fig2a")
	if err != nil {
		t.Fatal(err)
	}
	// Per variant, USE at the largest iteration count must not exceed USE
	// at the smallest (quality improves or holds with more work).
	first := map[string]float64{}
	last := map[string]float64{}
	for _, row := range tbl.Rows {
		v := row[0]
		use := cell(t, row[3])
		if _, ok := first[v]; !ok {
			first[v] = use
		}
		last[v] = use
	}
	for v := range first {
		if last[v] > first[v]*1.05 {
			t.Errorf("%s USE worsened with iterations: %.4f → %.4f", v, first[v], last[v])
		}
	}
}

func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tbl, err := run(t, "table1")
	if err != nil {
		t.Fatal(err)
	}
	// Distance+Min dominates both variants; center update share grows
	// under subsampling (paper: 10.2% → 17.9%).
	slicDist := cell(t, tbl.Rows[0][2])
	ssDist := cell(t, tbl.Rows[1][2])
	slicUpd := cell(t, tbl.Rows[0][3])
	ssUpd := cell(t, tbl.Rows[1][3])
	if slicDist < 30 || ssDist < 30 {
		t.Errorf("distance+min not dominant: %.1f%% / %.1f%%", slicDist, ssDist)
	}
	if ssUpd <= slicUpd {
		t.Errorf("center update share did not grow: %.1f%% → %.1f%%", slicUpd, ssUpd)
	}
}

func TestBitWidthShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	o := QuickOptions()
	o.Quick = false // need the full width sweep for the shape
	o.CorpusSize = 2
	r, _ := Lookup("bitwidth")
	tbl, err := r.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	// Row 0 is float64; find 8-bit and 4-bit rows.
	deltas := map[string]float64{}
	for _, row := range tbl.Rows[1:] {
		deltas[row[0]] = cell(t, row[2])
	}
	if d8, ok := deltas["8-bit"]; !ok || d8 > 0.02 {
		t.Errorf("8-bit ΔUSE = %.4f, want small (paper: 0.003)", d8)
	}
	if d4 := deltas["4-bit"]; d4 <= deltas["8-bit"] {
		t.Errorf("4-bit ΔUSE %.4f not worse than 8-bit %.4f", d4, deltas["8-bit"])
	}
}

func TestTableMarkdown(t *testing.T) {
	tbl := &Table{
		ID:      "x",
		Title:   "demo",
		Columns: []string{"a", "b|c"},
		Notes:   []string{"note one"},
	}
	tbl.AddRow("1", "2|3")
	md := tbl.Markdown()
	for _, want := range []string{"### x — demo", "| a | b\\|c |", "| 1 | 2\\|3 |", "> note one"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}
