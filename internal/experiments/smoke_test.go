package experiments

import (
	"testing"
)

// TestAllExperimentsSmoke runs every registered experiment at a tiny scale,
// verifying each produces non-empty, well-formed tables and fails no cell: a
// table's means skip failed cells, so a cell Config.Validate rejects would
// otherwise vanish from it unnoticed. This is the integration test for the
// whole reproduction pipeline.
func TestAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			rep, err := RunReport(id, Options{Cycles: 600})
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range rep.Failures {
				t.Errorf("failed cell: %v", f)
			}
			tables := rep.Tables
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tab := range tables {
				if tab.ID == "" || tab.Title == "" {
					t.Fatalf("table missing metadata: %+v", tab)
				}
				if len(tab.Cols) == 0 || len(tab.Rows) == 0 {
					t.Fatalf("table %s empty", tab.ID)
				}
				for _, row := range tab.Rows {
					if len(row) > len(tab.Cols) {
						t.Fatalf("table %s row wider than header: %v", tab.ID, row)
					}
				}
				if tab.String() == "" {
					t.Fatalf("table %s renders empty", tab.ID)
				}
			}
		})
	}
}
