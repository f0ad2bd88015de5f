package experiment_test

import (
	"strings"
	"testing"

	"qfarith/internal/experiment"
	"qfarith/internal/qft"
)

func smallPanel(t *testing.T) experiment.PanelResult {
	t.Helper()
	pc := experiment.PanelConfig{
		Geometry: experiment.AddGeometry(2, 3),
		Axis:     experiment.Axis2Q,
		OrderX:   1, OrderY: 1,
		Rates:  []float64{0, 0.05},
		Depths: []int{1, qft.Full},
		Budget: experiment.Budget{Instances: 4, Shots: 128, Trajectories: 4},
		Seed:   9,
	}
	return runPanel(t, pc, nil)
}

func TestOptimalDepths(t *testing.T) {
	res := smallPanel(t)
	opt := res.OptimalDepths()
	if len(opt) != 2 {
		t.Fatalf("got %d optima, want 2", len(opt))
	}
	// Noiseless: the full QFT never loses to depth 1... but ties break
	// toward the first (shallower) depth, so just check the success is
	// the max of the row.
	for i, o := range opt {
		maxRow := -1.0
		for j := range res.Config.Depths {
			if s := res.Points[i][j].Stats.SuccessRate; s > maxRow {
				maxRow = s
			}
		}
		if o.Success != maxRow {
			t.Errorf("rate %g: optimum %.1f != row max %.1f", o.Rate, o.Success, maxRow)
		}
	}
	line := res.SummaryLine()
	if !strings.Contains(line, "optimal depths") {
		t.Errorf("summary line %q", line)
	}
}

func TestCSVRoundTripThroughParser(t *testing.T) {
	res := smallPanel(t)
	rows, err := experiment.ParseCSV(res.CSV())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("parsed %d rows, want 4", len(rows))
	}
	for _, r := range rows {
		if r.Op != "qfa" || r.Axis != "2q" || r.OrderX != 1 || r.OrderY != 1 {
			t.Errorf("row mismatch: %+v", r)
		}
		if r.Success < 0 || r.Success > 100 {
			t.Errorf("success out of range: %+v", r)
		}
	}
	report := experiment.ReportFromCSV(rows)
	if !strings.Contains(report, "qfa 2q-axis 1:1") || !strings.Contains(report, "best d=") {
		t.Errorf("report:\n%s", report)
	}
}

func TestParseCSVErrors(t *testing.T) {
	if _, err := experiment.ParseCSV(""); err == nil {
		t.Error("empty CSV should error")
	}
	if _, err := experiment.ParseCSV("nope,nothing\n1,2"); err == nil {
		t.Error("missing columns should error")
	}
	if _, err := experiment.ParseCSV("op,axis,rate_pct,depth,order_x,order_y,success_pct\nqfa,2q,bad,1,1,1,50"); err == nil {
		t.Error("bad number should error")
	}
	if _, err := experiment.ParseCSV("op,axis,rate_pct,depth,order_x,order_y,success_pct\nqfa,2q"); err == nil {
		t.Error("short row should error")
	}
}

// TestParseCSVCorruptOptionalColumns is the regression test for the
// silent-zeroing bug: a corrupt mean_fidelity or w0 cell used to be
// swallowed (`row.Fidelity, _ = num(...)`) and fabricated as 0.0,
// skewing every downstream report. It must now be a parse error naming
// the line.
func TestParseCSVCorruptOptionalColumns(t *testing.T) {
	header := "op,axis,rate_pct,depth,order_x,order_y,success_pct,mean_fidelity,w0\n"
	good := "qfa,2q,1.000,1,1,1,50.00,0.9000,0.80000\n"
	for _, tc := range []struct {
		name string
		row  string
		want string
	}{
		{"corrupt mean_fidelity", "qfa,2q,1.000,1,1,1,50.00,not-a-number,0.80000\n", "mean_fidelity"},
		{"corrupt w0", "qfa,2q,1.000,1,1,1,50.00,0.9000,###\n", "w0"},
	} {
		_, err := experiment.ParseCSV(header + good + tc.row)
		if err == nil {
			t.Errorf("%s: expected error, got nil", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name the column", tc.name, err)
		}
		if !strings.Contains(err.Error(), "line 3") {
			t.Errorf("%s: error %q does not name line 3", tc.name, err)
		}
	}
	rows, err := experiment.ParseCSV(header + good)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Fidelity != 0.9 || rows[0].W0 != 0.8 {
		t.Errorf("valid optional columns misparsed: %+v", rows[0])
	}
}

// TestParseCSVSkipsCommentsAndFooter: runstore.WriteArtifact appends a
// `# sha256=...` checksum footer; the parser must treat it (and blank
// lines) as non-data.
func TestParseCSVSkipsCommentsAndFooter(t *testing.T) {
	content := "op,axis,rate_pct,depth,order_x,order_y,success_pct\n" +
		"qfa,2q,1.000,1,1,1,50.00\n" +
		"\n" +
		"# sha256=0123456789abcdef\n"
	rows, err := experiment.ParseCSV(content)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("parsed %d rows, want 1", len(rows))
	}
}

func TestReportFromCSVEmpty(t *testing.T) {
	if out := experiment.ReportFromCSV(nil); !strings.Contains(out, "no rows") {
		t.Errorf("got %q", out)
	}
}
