package main

import (
	"strings"
	"testing"
)

func ids(rs []runner) string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.id
	}
	return strings.Join(out, ",")
}

const catalogueIDs = "E2,E3,E6,E7,V6,V7"

func TestSelectRunners(t *testing.T) {
	all, err := selectRunners(catalogue(true), "all")
	if err != nil || ids(all) != catalogueIDs {
		t.Fatalf("all = %s (%v), want the whole catalogue %s", ids(all), err, catalogueIDs)
	}
	got, err := selectRunners(catalogue(true), " v7, e2 ,V6")
	if err != nil || ids(got) != "E2,V6,V7" {
		t.Fatalf("selection = %s (%v), want E2,V6,V7 in catalogue order", ids(got), err)
	}
	// These were tables once; a stale or mistyped id must not select a
	// subset.
	for _, stale := range []string{"V3", "E4", "E1", "E5", "AB1", "AB2"} {
		got, err = selectRunners(catalogue(true), "V6,"+stale)
		if err == nil || got != nil {
			t.Fatalf("unknown id %s selected %s, err %v", stale, ids(got), err)
		}
		if !strings.Contains(err.Error(), `"`+stale+`"`) || !strings.Contains(err.Error(), catalogueIDs) {
			t.Fatalf("error %q does not name the unknown id %s and the known ones", err, stale)
		}
	}
}

func TestRunUnknownIDExitsNonZero(t *testing.T) {
	if code := run([]string{"-quick", "-run", "V1"}); code == 0 {
		t.Fatal("run with an unknown experiment id exited 0")
	}
}
