package main

import (
	"path/filepath"
	"testing"

	"secmr/internal/obs"
)

// TestFlightDumpPicksNamedReason pins the dump an analysis reads: an
// eviction dump followed by the close-of-run dump must still send the
// evict analysis to the eviction dump.
func TestFlightDumpPicksNamedReason(t *testing.T) {
	dir := t.TempDir()
	fr, err := obs.NewFlightRecorder(dir, obs.NewSink(), nil, obs.FlightOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, reason := range []string{"evict", "close"} {
		if _, err := fr.Dump(reason, nil); err != nil {
			t.Fatal(err)
		}
	}
	dumps := obs.ListFlightDumps(dir)
	for analysis, want := range map[string]string{"evict": "0001-evict", "dag": "0002-close", "losses": "0002-close"} {
		if got := filepath.Base(flightDump(dumps, analysis)); got != want {
			t.Errorf("%s analysis reads %s, want %s", analysis, got, want)
		}
	}
}
