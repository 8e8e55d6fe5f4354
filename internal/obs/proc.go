package obs

import (
	"os"
	"strconv"
	"strings"
)

// RegisterProcessGauges exposes the process resident set on /metrics
// so load generators can record memory alongside throughput without
// shelling into the host.
func RegisterProcessGauges(r *Registry) {
	r.GaugeFunc("process_rss_mb", "Current resident set (VmRSS), MiB.",
		func() float64 { return ProcStatusMB("VmRSS:") })
	r.GaugeFunc("process_peak_rss_mb", "Peak resident set (VmHWM), MiB.",
		func() float64 { return ProcStatusMB("VmHWM:") })
}

// ProcStatusMB reads one kB-valued field of /proc/self/status (field
// names its prefix, e.g. "VmHWM:") in MiB; 0 when unavailable
// (non-Linux).
func ProcStatusMB(field string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, field) {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}
