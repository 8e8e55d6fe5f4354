package obs

import (
	"os"
	"strings"
	"testing"
)

func TestProcessGauges(t *testing.T) {
	if _, err := os.Stat("/proc/self/status"); err != nil {
		t.Skip("no /proc/self/status on this platform")
	}
	if got := ProcStatusMB("NoSuchField:"); got != 0 {
		t.Fatalf("missing field reads %v, want 0", got)
	}
	rss, peak := ProcStatusMB("VmRSS:"), ProcStatusMB("VmHWM:")
	if rss <= 0 || peak < rss {
		t.Fatalf("VmRSS %v MiB, VmHWM %v MiB: want 0 < rss <= peak", rss, peak)
	}
	r := NewRegistry()
	RegisterProcessGauges(r)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"process_rss_mb ", "process_peak_rss_mb "} {
		if !strings.Contains(b.String(), name) {
			t.Fatalf("exposition lacks %q:\n%s", name, b.String())
		}
	}
}
