package main

import (
	"testing"

	restore "repro"
	"repro/internal/pigmix"
)

// TestReferenceTiny checks the reference against the hand-computed
// answers on the tiny instance.
func TestReferenceTiny(t *testing.T) {
	if err := checkReference(); err != nil {
		t.Fatal(err)
	}
}

// TestSystemMatchesTinyAnswers runs every query through a System on the
// tiny instance and compares its rows with the hand-computed answers, so
// the reference's row format is the one the daemon returns.
func TestSystemMatchesTinyAnswers(t *testing.T) {
	in := tinyInstance()
	for q, want := range tinyWant {
		sys := restore.New()
		for _, tb := range []struct {
			spec tableSpec
			rows []string
		}{
			{pageViewsTable, tsvLines(in.pageViews)},
			{usersTable, tsvLines(in.users)},
			{powerUsersTable, tsvLines(in.powerUsers)},
			{wideRowTable, tsvLines(in.wideRow)},
		} {
			if err := sys.LoadTSV(tb.spec.path, tb.spec.decl, tb.rows, tb.spec.partitions); err != nil {
				t.Fatal(err)
			}
		}
		script, err := pigmix.Query(q, "out/"+q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Execute(script)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		got, err := sys.ReadOutputTSV(res, "out/"+q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if err := compareRows(got, want); err != nil {
			t.Errorf("%s: %v", q, err)
		}
	}
}

// TestDatasetVersionsDiffer checks that consecutive versions of the
// re-uploaded table give different answers for some query, so a stale
// reuse cannot pass the row check.
func TestDatasetVersionsDiffer(t *testing.T) {
	for _, name := range []string{"pigmix-cold", "pigmix-warm"} {
		w := workloads[name]
		d, err := buildDataset(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		differ := 0
		for _, q := range w.queries {
			if w.readsVarying(q) && compareRows(d.want[0][q], d.want[1][q]) != nil {
				differ++
			}
		}
		if differ == 0 {
			t.Errorf("%s: no query answers differently on the two versions", name)
		}
	}
}
